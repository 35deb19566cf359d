(* Data-plane codecs: every message whose payload contains group elements —
   ciphertext batches, proof-carrying shuffle / decrypt-and-reencrypt
   steps, group public keys. Parametric over the group backend (and its
   ElGamal instantiation) exactly like the protocol engine itself.

   Proof objects travel as opaque length-prefixed blobs at this layer; the
   proof modules' own [of_bytes] decoders (which validate every element)
   run at the protocol boundary, keeping the wire layer free of the zkp
   dependency while every byte still gets validated before use.

   Body layouts (big-endian; header per Frame):

     cipher       u8 has_y=0 ⇒ R ‖ c          (2·eb + 1 bytes)
                  u8 has_y=1 ⇒ R ‖ c ‖ Y      (3·eb + 1 bytes)
                  (exactly Elgamal.cipher_to_bytes: R ‖ c ‖ flag [‖ Y])
     vec          u16 width ‖ width × cipher
     vecs         u32 count ‖ count × vec
     proofs       u32 count ‖ count × str32

     group_key    u32 gid ‖ element
     batch        u32 dst_gid ‖ u32 iter ‖ u32 src_gid ‖ u64 sent_at ‖
                  vecs input ‖ vecs output ‖ proofs
     shuffle_step u32 gid ‖ u32 iter ‖ u16 step ‖ u64 sent_at ‖
                  vecs input ‖ vecs output ‖ str32 proof
     reenc_step   u32 gid ‖ u32 iter ‖ u32 batch_idx ‖ u16 step ‖
                  u64 sent_at ‖ vecs input ‖ vecs output ‖ proofs
     exit_batch   u32 gid ‖ u32 iter ‖ u32 batch_idx ‖ vecs input ‖
                  vecs output ‖ proofs

   [sent_at] is the sender's process-relative clock in microseconds at
   encode time (0 when the sender has no clock): pure telemetry, letting
   the merged cluster trace split a receiver's recv-wait into "peer still
   computing" vs. "frame in flight". It is never used for protocol
   decisions. [exit_batch.iter] is the absolute iteration of the final
   layer, so pipelined epochs (absolute iter = epoch·T + layer) keep exit
   collection keyed by epoch.

   Decode runs in two phases under every [Validation] policy:

   1. One structural parse of the body, strict and total. Group elements
      are decoded as [G.Unverified.elt] views straight off the receive
      buffer ([Bin.R.view] offsets + [G.Unverified.of_bytes_sub] — no
      per-element substring copies), accumulated in wire order, with a
      [raw] skeleton recording the message shape (per-cipher Y-flags) so
      the bytes are parsed exactly once.
   2. A membership discharge, scheduled by the policy: [Eager] discharges
      per element (fail-fast), [Batched] runs one amortized
      [discharge_batch] over the whole frame and returns the finished
      [msg], [Deferred] returns the undischarged [deferred] so the caller
      can dedup / route cheaply and [discharge] later — which also
      reports *which* element was a non-member.

   Strict and total like every decoder in this library: arbitrary bytes
   yield [None], never an exception. A frame containing a non-member
   element is rejected under every policy; only the timing of the check
   differs. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) =
struct
  type msg =
    | Group_key of { gid : int; pk : G.t }
    | Batch of {
        gid : int; (* destination group *)
        iter : int; (* destination absolute iteration (epoch·T + layer) *)
        src_gid : int;
        sent_at : int; (* sender clock, µs; 0 = unclocked *)
        input : El.vec array; (* pre-final-step state, for proof checks *)
        output : El.vec array; (* proven output (Y not yet cleared) *)
        proofs : string array; (* last ReEnc step's proofs, per unit *)
      }
    | Shuffle_step of {
        gid : int;
        iter : int;
        step : int; (* quorum index of the receiving member *)
        sent_at : int;
        input : El.vec array;
        output : El.vec array;
        proof : string; (* ShufProof bytes; empty in the basic variant *)
      }
    | Reenc_step of {
        gid : int;
        iter : int;
        batch_idx : int;
        step : int;
        sent_at : int;
        input : El.vec array;
        output : El.vec array;
        proofs : string array;
      }
    | Exit_batch of {
        gid : int;
        iter : int; (* absolute iteration of the final layer *)
        batch_idx : int;
        input : El.vec array;
        output : El.vec array;
        proofs : string array;
      }

  module W = Atom_util.Bin.W
  module R = Atom_util.Bin.R

  let max_width = 4096

  (* ---- writers ---- *)

  (* 63-bit OCaml ints cover u64 timestamps for any plausible uptime. *)
  let write_u64 (b : Buffer.t) (v : int) =
    W.u32 b (v lsr 32);
    W.u32 b v

  let write_vec (b : Buffer.t) (v : El.vec) =
    if Array.length v > max_width then invalid_arg "Codec.write_vec: width too large";
    W.u16 b (Array.length v);
    Array.iter (fun ct -> Buffer.add_string b (El.cipher_to_bytes ct)) v

  let write_vecs (b : Buffer.t) (vs : El.vec array) =
    W.u32 b (Array.length vs);
    Array.iter (write_vec b) vs

  let write_proofs (b : Buffer.t) (ps : string array) =
    W.u32 b (Array.length ps);
    Array.iter (W.str32 b) ps

  (* ---- structural parse (phase 1) ----

     The skeleton mirrors [msg] with every group element factored out into
     one flat accumulator: a cipher is its per-position Y-flag, a vec is a
     flag array, and elements live in [elts] in exact wire order. [build]
     re-threads a discharged element array through the same shape. *)

  type raw =
    | R_group_key of { gid : int }
    | R_batch of {
        gid : int;
        iter : int;
        src_gid : int;
        sent_at : int;
        input : bool array array;
        output : bool array array;
        proofs : string array;
      }
    | R_shuffle_step of {
        gid : int;
        iter : int;
        step : int;
        sent_at : int;
        input : bool array array;
        output : bool array array;
        proof : string;
      }
    | R_reenc_step of {
        gid : int;
        iter : int;
        batch_idx : int;
        step : int;
        sent_at : int;
        input : bool array array;
        output : bool array array;
        proofs : string array;
      }
    | R_exit_batch of {
        gid : int;
        iter : int;
        batch_idx : int;
        input : bool array array;
        output : bool array array;
        proofs : string array;
      }

  type deferred = { raw : raw; elts : G.Unverified.elt array }
  (** A structurally-parsed frame whose elements' membership checks are
      still owed; release the message with {!discharge}. *)

  (* Growable element accumulator ([elt] is abstract, so growth seeds new
     storage with the pushed value instead of a dummy). Body length bounds
     the element count, so capacity is bounded by [Frame.max_body]. *)
  type acc = { mutable els : G.Unverified.elt array; mutable n : int }

  let acc_push (a : acc) (e : G.Unverified.elt) =
    let cap = Array.length a.els in
    if a.n = cap then begin
      let grown = Array.make (max 64 (2 * cap)) e in
      Array.blit a.els 0 grown 0 a.n;
      a.els <- grown
    end;
    a.els.(a.n) <- e;
    a.n <- a.n + 1

  let read_u64 (r : R.t) : int =
    let hi = R.u32 r in
    let lo = R.u32 r in
    (hi lsl 32) lor lo

  (* One element: a zero-copy view into the receive buffer, structurally
     decoded in place. *)
  let read_elt (acc : acc) (r : R.t) : unit =
    let pos = R.view r G.element_bytes in
    match G.Unverified.of_bytes_sub (R.src r) ~pos with
    | Some e -> acc_push acc e
    | None -> R.fail ()

  let read_cipher (acc : acc) (r : R.t) : bool =
    read_elt acc r;
    (* R *)
    read_elt acc r;
    (* c *)
    match R.u8 r with
    | 0 -> false
    | 1 ->
        read_elt acc r;
        (* Y *)
        true
    | _ -> R.fail ()

  let read_vec (acc : acc) (r : R.t) : bool array =
    let w = R.u16 r in
    if w > max_width then R.fail ();
    Array.init w (fun _ -> read_cipher acc r)

  (* A body never exceeds [Frame.max_body]; [count] also bounds each count
     by the bytes present (a vec takes ≥ 2 bytes, a proof ≥ 4). *)
  let read_vecs (acc : acc) (r : R.t) : bool array array =
    let n = R.count r ~max:Frame.max_body in
    Array.init n (fun _ -> read_vec acc r)

  let read_proofs (r : R.t) : string array =
    let n = R.count r ~max:Frame.max_body in
    Array.init n (fun _ -> R.str32 r)

  let parse_body (kind : int) (body : string) : deferred option =
    let acc = { els = [||]; n = 0 } in
    let open R in
    decode body (fun r ->
        let raw =
          if kind = Frame.kind_group_key then begin
            let gid = u32 r in
            read_elt acc r;
            R_group_key { gid }
          end
          else if kind = Frame.kind_batch then
            let gid = u32 r in
            let iter = u32 r in
            let src_gid = u32 r in
            let sent_at = read_u64 r in
            let input = read_vecs acc r in
            let output = read_vecs acc r in
            R_batch { gid; iter; src_gid; sent_at; input; output; proofs = read_proofs r }
          else if kind = Frame.kind_shuffle_step then
            let gid = u32 r in
            let iter = u32 r in
            let step = u16 r in
            let sent_at = read_u64 r in
            let input = read_vecs acc r in
            let output = read_vecs acc r in
            R_shuffle_step
              { gid; iter; step; sent_at; input; output; proof = str32 r }
          else if kind = Frame.kind_reenc_step then
            let gid = u32 r in
            let iter = u32 r in
            let batch_idx = u32 r in
            let step = u16 r in
            let sent_at = read_u64 r in
            let input = read_vecs acc r in
            let output = read_vecs acc r in
            R_reenc_step
              { gid; iter; batch_idx; step; sent_at; input; output; proofs = read_proofs r }
          else if kind = Frame.kind_exit_batch then
            let gid = u32 r in
            let iter = u32 r in
            let batch_idx = u32 r in
            let input = read_vecs acc r in
            let output = read_vecs acc r in
            R_exit_batch { gid; iter; batch_idx; input; output; proofs = read_proofs r }
          else fail ()
        in
        { raw; elts = Array.sub acc.els 0 acc.n })

  (* ---- rebuild (phase 2) ---- *)

  let build (raw : raw) (els : G.t array) : msg =
    let k = ref 0 in
    let next () =
      let e = els.(!k) in
      incr k;
      e
    in
    let cipher has_y =
      let r = next () in
      let c = next () in
      let y = if has_y then Some (next ()) else None in
      { El.r; c; y }
    in
    let vec flags = Array.init (Array.length flags) (fun i -> cipher flags.(i)) in
    let vecs fss = Array.init (Array.length fss) (fun i -> vec fss.(i)) in
    match raw with
    | R_group_key { gid } -> Group_key { gid; pk = next () }
    | R_batch { gid; iter; src_gid; sent_at; input; output; proofs } ->
        let input = vecs input in
        let output = vecs output in
        Batch { gid; iter; src_gid; sent_at; input; output; proofs }
    | R_shuffle_step { gid; iter; step; sent_at; input; output; proof } ->
        let input = vecs input in
        let output = vecs output in
        Shuffle_step { gid; iter; step; sent_at; input; output; proof }
    | R_reenc_step { gid; iter; batch_idx; step; sent_at; input; output; proofs } ->
        let input = vecs input in
        let output = vecs output in
        Reenc_step { gid; iter; batch_idx; step; sent_at; input; output; proofs }
    | R_exit_batch { gid; iter; batch_idx; input; output; proofs } ->
        let input = vecs input in
        let output = vecs output in
        Exit_batch { gid; iter; batch_idx; input; output; proofs }

  let discharge ?pool (d : deferred) : (msg, int) result =
    match G.Unverified.discharge_batch ?pool d.elts with
    | Ok els -> Ok (build d.raw els)
    | Error i -> Error i

  type decoded = Msg of msg | Unchecked of deferred

  let force ?pool (d : decoded) : msg option =
    match d with
    | Msg m -> Some m
    | Unchecked d -> ( match discharge ?pool d with Ok m -> Some m | Error _ -> None)

  (* ---- message codec ---- *)

  let encode (msg : msg) : string =
    let b = Buffer.create 256 in
    let kind =
      match msg with
      | Group_key { gid; pk } ->
          W.u32 b gid;
          Buffer.add_string b (G.to_bytes pk);
          Frame.kind_group_key
      | Batch { gid; iter; src_gid; sent_at; input; output; proofs } ->
          W.u32 b gid;
          W.u32 b iter;
          W.u32 b src_gid;
          write_u64 b sent_at;
          write_vecs b input;
          write_vecs b output;
          write_proofs b proofs;
          Frame.kind_batch
      | Shuffle_step { gid; iter; step; sent_at; input; output; proof } ->
          W.u32 b gid;
          W.u32 b iter;
          W.u16 b step;
          write_u64 b sent_at;
          write_vecs b input;
          write_vecs b output;
          W.str32 b proof;
          Frame.kind_shuffle_step
      | Reenc_step { gid; iter; batch_idx; step; sent_at; input; output; proofs } ->
          W.u32 b gid;
          W.u32 b iter;
          W.u32 b batch_idx;
          W.u16 b step;
          write_u64 b sent_at;
          write_vecs b input;
          write_vecs b output;
          write_proofs b proofs;
          Frame.kind_reenc_step
      | Exit_batch { gid; iter; batch_idx; input; output; proofs } ->
          W.u32 b gid;
          W.u32 b iter;
          W.u32 b batch_idx;
          write_vecs b input;
          write_vecs b output;
          write_proofs b proofs;
          Frame.kind_exit_batch
    in
    Frame.encode ~kind (Buffer.contents b)

  let decode_body ?pool ?(policy = Validation.Eager) (kind : int) (body : string) :
      decoded option =
    match parse_body kind body with
    | None -> None
    | Some d -> (
        match policy with
        | Validation.Deferred -> Some (Unchecked d)
        | Validation.Batched -> (
            match discharge ?pool d with Ok m -> Some (Msg m) | Error _ -> None)
        | Validation.Eager ->
            (* Fail-fast per-element discharge; [G.one] only seeds the
               output array and every slot is overwritten before use. *)
            let n = Array.length d.elts in
            let out = Array.make n G.one in
            let rec go i =
              if i >= n then Some (Msg (build d.raw out))
              else
                match G.Unverified.discharge d.elts.(i) with
                | Some e ->
                    out.(i) <- e;
                    go (i + 1)
                | None -> None
            in
            go 0)

  let decode ?pool ?policy (framed : string) : decoded option =
    match Frame.decode framed with
    | None -> None
    | Some (kind, body) -> decode_body ?pool ?policy kind body
end
