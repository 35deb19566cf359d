(* Public bulletin board — the microblogging application (§5).

   The exit servers of a successful round post the anonymized plaintexts;
   readers fetch by round. The board is untrusted for anonymity (everything
   on it is already anonymized) and trivially shardable, so it is plain
   state here.

   The submission plane adds the *sealed* per-epoch output: the epoch's
   plaintexts in a canonical order (sorted, duplicates collapsed — exit
   order would otherwise leak pipeline structure and make the digest
   depend on network timing), a binding SHA-256 digest over them, and a
   Schnorr signature by the publisher so clients can verify an announced
   epoch without trusting the channel it arrived on. *)

type post = { round : int; body : string }
type t = { mutable posts : post list (* chronological *) }

let create () : t = { posts = [] }

let publish_round (t : t) ~(round : int) (messages : string list) : unit =
  t.posts <- t.posts @ List.map (fun body -> { round; body }) messages

let read_round (t : t) ~(round : int) : string list =
  List.filter_map (fun p -> if p.round = round then Some p.body else None) t.posts

let read_all (t : t) : (int * string) list = List.map (fun p -> (p.round, p.body)) t.posts

let size (t : t) : int = List.length t.posts

(* ---- Sealed per-epoch output ---- *)

type sealed = {
  epoch : int;
  posts : string array;  (* canonical order: sorted, deduplicated *)
  digest : string;  (* 32 bytes, binds epoch + posts *)
}

(* Canonicalize: sort then collapse adjacent duplicates. Deterministic
   regardless of exit arrival order, so every replica of the publisher
   seals byte-identical output. *)
let canonical (posts : string list) : string array =
  let sorted = List.sort String.compare posts in
  let dedup =
    List.fold_left
      (fun acc p -> match acc with q :: _ when String.equal q p -> acc | _ -> p :: acc)
      [] sorted
  in
  Array.of_list (List.rev dedup)

let digest_of ~(epoch : int) (posts : string array) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "atom-bulletin/1";
  Buffer.add_string b (Printf.sprintf "%016x" epoch);
  Array.iter
    (fun p ->
      Buffer.add_string b (Printf.sprintf "%08x" (String.length p));
      Buffer.add_string b p)
    posts;
  Atom_hash.Sha256.digest (Buffer.contents b)

let seal ~(epoch : int) (posts : string list) : sealed =
  let posts = canonical posts in
  { epoch; posts; digest = digest_of ~epoch posts }

(* Verify that a received (epoch, posts, digest) triple is internally
   consistent — the posts really are canonical and really hash to the
   digest. Signature checks live in [Signer]. *)
let sealed_consistent (s : sealed) : bool =
  let c = canonical (Array.to_list s.posts) in
  c = s.posts && String.equal (digest_of ~epoch:s.epoch c) s.digest

let publish_sealed (t : t) (s : sealed) : unit =
  publish_round t ~round:s.epoch (Array.to_list s.posts)

(* ---- Publisher signatures ----

   Classic Schnorr over the group backend, with a deterministic nonce
   (hash of sk ‖ msg — no RNG on the signing path, so a replayed seal
   signs byte-identically). Sig = R ‖ s with both components at their
   fixed encoded lengths. The harness derives the publisher keypair from
   the round seed; a deployment would run the DKG used for group keys. *)

module Signer (G : Atom_group.Group_intf.GROUP) = struct
  module Io = Atom_group.Group_intf.Bin_io (G)

  type sk = G.Scalar.t
  type pk = G.t

  let keypair ~(seed : int) : sk * pk =
    let sk = G.hash_to_scalar (Printf.sprintf "atom-bulletin-signer/%d" seed) in
    (sk, G.pow_gen sk)

  let challenge ~(pk : pk) ~(r : G.t) (msg : string) : G.Scalar.t =
    G.hash_to_scalar ("atom-bulletin-sign/" ^ G.to_bytes r ^ G.to_bytes pk ^ msg)

  let sign ~(sk : sk) (msg : string) : string =
    let k = G.hash_to_scalar ("atom-bulletin-nonce/" ^ G.Scalar.to_bytes sk ^ msg) in
    let r = G.pow_gen k in
    let c = challenge ~pk:(G.pow_gen sk) ~r msg in
    let s = G.Scalar.add k (G.Scalar.mul c sk) in
    G.to_bytes r ^ G.Scalar.to_bytes s

  let verify ~(pk : pk) ~(msg : string) (signature : string) : bool =
    match
      Atom_util.Bin.R.decode signature (fun rd ->
          let r = Io.element rd in
          (r, Io.scalar rd))
    with
    | None -> false
    | Some (r, s) ->
        (* g^s = R · pk^c *)
        let c = challenge ~pk ~r msg in
        G.equal (G.pow_gen s) (G.mul r (G.pow pk c))

  let sign_sealed ~(sk : sk) (s : sealed) : string = sign ~sk s.digest

  let verify_sealed ~(pk : pk) (s : sealed) ~(signature : string) : bool =
    sealed_consistent s && verify ~pk ~msg:s.digest signature
end
