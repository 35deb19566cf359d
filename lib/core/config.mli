(** Protocol configuration (§4, §6.2). *)

type variant =
  | Basic  (** §4.2: no active-attack protection (analysis/baseline only) *)
  | Nizk  (** §4.3: verifiable shuffles + verifiable decryption *)
  | Trap  (** §4.4: trap messages + trustee group *)

type topology_kind =
  | Square of int  (** Håstad square network with T iterations *)
  | Butterfly of int  (** iterated butterfly with this many repetitions *)

type t = {
  variant : variant;
  n_servers : int;
  n_groups : int;
  group_size : int;  (** k *)
  h : int;  (** required honest servers per group; quorum = k − (h−1) *)
  f : float;  (** assumed adversarial fraction (sizing only) *)
  topology : topology_kind;
  msg_bytes : int;
  seed : int;
  mailboxes : int;  (** dialing mailbox count (§5) *)
  dummy_mu : float;  (** mean DP dummies per trustee (Vuvuzela mechanism) *)
  dummy_b : float;  (** Laplace scale of the dummy count *)
}

val quorum : t -> int
(** k − (h − 1): members needed to route a batch (§4.5). *)

val iterations : t -> int
val topology : t -> Atom_topology.Topology.t

val validate : t -> unit
(** @raise Invalid_argument on inconsistent parameters. *)

val paper_default : t
(** The §6.2 evaluation deployment: 1,024 servers, 1,024 groups of 33 with
    h = 2, square T = 10, trap variant, 160-byte messages, µ = 13,000. *)

val tiny : ?variant:variant -> ?seed:int -> unit -> t
(** A 12-server, 4-group configuration for tests and examples running real
    cryptography. *)

val cluster : t
(** The loopback cluster's deployment: 8 servers, 4 groups of 2 with h = 1,
    square T = 3, NIZK variant, seed 1. *)

val variant_name : variant -> string
(** ["basic"], ["nizk"] or ["trap"]. *)

val variant_of_string : string -> (variant, string) result
(** The inverse of {!variant_name}. *)

type flag = {
  name : string;  (** without the leading [--] *)
  doc : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
}

val flags : flag list
(** The command-line flags a cluster configuration travels in: variant,
    servers, groups, group-size, honest, iterations (Square topologies
    only), msg-bytes and seed. The binaries read them with [set]; the
    remaining fields come from the configuration they start from. *)

val to_args : t -> string list
(** [--name value] for every flag, which [set] reads back into the same
    configuration.
    @raise Invalid_argument on a Butterfly topology. *)
