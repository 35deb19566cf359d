(* Batch verification by random linear combination: the small-exponent
   test of Bellare–Garay–Rabin (EUROCRYPT '98).

   Each equation of a batch is rearranged into a product of powers that
   must equal the identity, raised to its own random weight ρ, and the
   weighted products are multiplied into one multi-scalar multiplication
   compared with the identity. If any equation is false, the combination
   is the identity with probability at most 2^-128 for uniform 128-bit
   weights (about 1/q in a group whose order q is below 2^128, where the
   weights reduce mod q). The argument needs a group of prime order and
   operands that are members of it: an element outside the group could
   carry a small-order error that some weights cancel. Both backends have
   prime order, and their decoders reject non-members.

   The weights are drawn only after every prover message is fixed: the
   caller's transcript holds every statement, commitment and response of
   the batch, [weights] hashes it into one digest and expands that with
   ChaCha20 into 16-byte weights. A weight fixed before the responses
   would let a prover pick two wrong responses whose errors cancel.

   Exponents on bases that many equations share (the generator, a
   server's effective key, the next group's key) are summed in scalar
   arithmetic before the MSM, so each such base is one term. *)

module Make (G : Atom_group.Group_intf.GROUP) = struct
  module S = G.Scalar

  type t = { shared : (G.t * S.t ref) array; mutable terms : (G.t * S.t) list }

  let create ~(shared : G.t list) : t =
    { shared = Array.of_list (List.map (fun b -> (b, ref S.zero)) shared); terms = [] }

  (* A shared base is found by physical equality: callers pass the very
     value they named in [create]. Any other base is a term of its own. *)
  let add (acc : t) (base : G.t) (k : S.t) : unit =
    let rec go i =
      if i = Array.length acc.shared then acc.terms <- (base, k) :: acc.terms
      else
        let b, e = acc.shared.(i) in
        if b == base then e := S.add !e k else go (i + 1)
    in
    go 0

  (* g^u = a·h^c with weight w, as a^w · g^{−w·u} · h^{w·c} = 1: [a]
     carries the bare weight, so a 128-bit weight keeps its term short. *)
  let equation (acc : t) ~(w : S.t) ~(g : G.t) ~(u : S.t) ~(h : G.t) ~(c : S.t) ~(a : G.t) :
      unit =
    add acc a w;
    add acc g (S.neg (S.mul w u));
    add acc h (S.mul w c)

  let holds ?pool (acc : t) : bool =
    let shared =
      Array.fold_left
        (fun terms (b, e) -> if S.is_zero !e then terms else (b, !e) :: terms)
        acc.terms acc.shared
    in
    G.is_one (G.msm ?pool (Array.of_list shared))

  let weight_bytes = 16
  let per_block = 64 / weight_bytes
  let nonce = String.make 12 '\000'

  let weights (tr : Transcript.t) (k : int) : S.t array =
    let key = Transcript.digest tr in
    let blocks =
      Array.init
        ((k + per_block - 1) / per_block)
        (fun b -> Bytes.unsafe_to_string (Atom_cipher.Chacha20.block ~key ~nonce ~counter:b))
    in
    Array.init k (fun i ->
        S.of_bytes_mod
          (String.sub blocks.(i / per_block) (i mod per_block * weight_bytes) weight_bytes))

  type claim = {
    digest : string;
    t : S.t;
    u : S.t;
    u_bytes : string;
    legs : (G.t * G.t * G.t) array; (* (g, h, a) of each equation g^u = a·h^t *)
  }

  let claim ~(digest : string) ~(u : S.t) (legs : (G.t * G.t * G.t) array) : claim =
    { digest; t = G.hash_to_scalar digest; u; u_bytes = S.to_bytes u; legs }

  let check ?pool ~(shared : G.t list) (claims : claim array) : bool =
    let tr = Transcript.create ~domain:"sigma-batch" in
    Array.iter
      (fun c ->
        Transcript.add tr c.digest;
        Transcript.add tr c.u_bytes)
      claims;
    (* A lone equation needs no weight: it is checked exactly. *)
    let legs = Array.fold_left (fun k c -> k + Array.length c.legs) 0 claims in
    let w = if legs = 1 then [| S.one |] else weights tr legs in
    let acc = create ~shared in
    let next = ref 0 in
    Array.iter
      (fun c ->
        Array.iter
          (fun (g, h, a) ->
            equation acc ~w:w.(!next) ~g ~u:c.u ~h ~c:c.t ~a;
            incr next)
          c.legs)
      claims;
    holds ?pool acc
end
