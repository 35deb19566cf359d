(* Protocol configuration.

   Defaults follow the paper's large-scale evaluation (§6.2): trap variant,
   f = 20%, h = 2 (tolerate one failure), group size 33 with a 32-server
   quorum, square topology with T = 10 iterations, 160-byte microblogging
   messages. Tests and examples shrink every knob. *)

type variant =
  | Basic (* §4.2: no protection against active servers (analysis only) *)
  | Nizk (* §4.3: verifiable shuffles + verifiable decryption *)
  | Trap (* §4.4: trap messages + trustees *)

type topology_kind = Square of int (* iterations T *) | Butterfly of int (* repetitions *)

type t = {
  variant : variant;
  n_servers : int;
  n_groups : int;
  group_size : int; (* k *)
  h : int; (* required honest servers per group; quorum = k - (h-1) *)
  f : float; (* assumed adversarial fraction, for sizing only *)
  topology : topology_kind;
  msg_bytes : int;
  seed : int;
  (* Dialing (§5): mailbox count and Vuvuzela-style dummy parameters; the
     trustee group adds ~ Laplace(mu, b) dummy messages per trustee. *)
  mailboxes : int;
  dummy_mu : float;
  dummy_b : float;
}

let quorum (c : t) : int = c.group_size - (c.h - 1)

let iterations (c : t) : int =
  match c.topology with
  | Square t -> t
  | Butterfly reps ->
      let levels = max 1 (int_of_float (Float.round (Float.log2 (float_of_int c.n_groups)))) in
      levels * reps

let topology (c : t) : Atom_topology.Topology.t =
  match c.topology with
  | Square t -> Atom_topology.Topology.square ~groups:c.n_groups ~iterations:t
  | Butterfly reps -> Atom_topology.Topology.butterfly ~groups:c.n_groups ~repetitions:reps

let validate (c : t) : unit =
  if c.n_servers < 1 then invalid_arg "Config: n_servers must be >= 1";
  if c.n_groups < 1 then invalid_arg "Config: n_groups must be >= 1";
  if c.group_size < 1 || c.group_size > c.n_servers then
    invalid_arg "Config: need 1 <= group_size <= n_servers";
  if c.h < 1 || c.h > c.group_size then invalid_arg "Config: need 1 <= h <= group_size";
  if c.msg_bytes < 1 then invalid_arg "Config: msg_bytes must be positive";
  if c.mailboxes < 1 then invalid_arg "Config: mailboxes must be >= 1"

(* The paper's 1,024-server trap-variant deployment. *)
let paper_default : t =
  {
    variant = Trap;
    n_servers = 1024;
    n_groups = 1024;
    group_size = 33;
    h = 2;
    f = 0.2;
    topology = Square 10;
    msg_bytes = 160;
    seed = 1;
    mailboxes = 1 lsl 16;
    dummy_mu = 13_000.;
    dummy_b = 1_000.;
  }

(* The loopback cluster's deployment: 8 servers in 4 groups of 2 with
   h = 1, square T = 3. *)
let cluster : t =
  {
    variant = Nizk;
    n_servers = 8;
    n_groups = 4;
    group_size = 2;
    h = 1;
    f = 0.2;
    topology = Square 3;
    msg_bytes = 32;
    seed = 1;
    mailboxes = 64;
    dummy_mu = 2.;
    dummy_b = 1.;
  }

let variant_name = function Basic -> "basic" | Nizk -> "nizk" | Trap -> "trap"

let variant_of_string = function
  | "basic" -> Ok Basic
  | "nizk" -> Ok Nizk
  | "trap" -> Ok Trap
  | s -> Error (Printf.sprintf "unknown variant %S (basic|nizk|trap)" s)

type flag = {
  name : string;
  doc : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
}

(* The command-line flags a cluster configuration travels in, both ways:
   the binaries read them, and a node process is handed them. *)
let flags : flag list =
  let int name doc get set =
    let set c s =
      match int_of_string_opt s with
      | Some v -> Ok (set c v)
      | None -> Error (Printf.sprintf "--%s: %S is not an integer" name s)
    in
    { name; doc; get = (fun c -> string_of_int (get c)); set }
  in
  let square c =
    match c.topology with
    | Square n -> n
    | Butterfly _ -> invalid_arg "Config.flags: cluster runs use the Square topology"
  in
  [
    {
      name = "variant";
      doc = "basic|nizk|trap.";
      get = (fun c -> variant_name c.variant);
      set = (fun c s -> Result.map (fun variant -> { c with variant }) (variant_of_string s));
    };
    int "servers" "Number of servers." (fun c -> c.n_servers) (fun c n_servers ->
        { c with n_servers });
    int "groups" "Number of groups." (fun c -> c.n_groups) (fun c n_groups -> { c with n_groups });
    int "group-size" "Servers per group (k)." (fun c -> c.group_size) (fun c group_size ->
        { c with group_size });
    int "honest" "Required honest servers per group (h)." (fun c -> c.h) (fun c h -> { c with h });
    int "iterations" "Mixing iterations (T)." square (fun c n -> { c with topology = Square n });
    int "msg-bytes" "Plaintext size." (fun c -> c.msg_bytes) (fun c msg_bytes ->
        { c with msg_bytes });
    int "seed" "Deterministic seed." (fun c -> c.seed) (fun c seed -> { c with seed });
  ]

let to_args (c : t) : string list = List.concat_map (fun f -> [ "--" ^ f.name; f.get c ]) flags

(* A small configuration for tests and examples running real cryptography. *)
let tiny ?(variant = Trap) ?(seed = 42) () : t =
  {
    variant;
    n_servers = 12;
    n_groups = 4;
    group_size = 3;
    h = 1;
    f = 0.2;
    topology = Square 4;
    msg_bytes = 32;
    seed;
    mailboxes = 8;
    dummy_mu = 2.;
    dummy_b = 1.;
  }
