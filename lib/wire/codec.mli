(** Data-plane codecs: every wire message whose payload contains group
    elements — ciphertext batches, proof-carrying shuffle /
    decrypt-and-reencrypt steps, group public keys. Parametric over the
    group backend (and its ElGamal instantiation) exactly like the
    protocol engine itself.

    Decode is two-phase: one strict structural parse of the body (group
    elements become {!Atom_group.Group_intf.GROUP.Unverified} views read
    in place off the receive buffer, no per-element copies), then a
    membership discharge scheduled by the {!Validation} policy. Every
    policy accepts exactly the same frames; see {!Validation} for the
    semantics and DESIGN.md, "Wire validation policies", for the
    soundness argument.

    Decoders are strict and total: arbitrary bytes yield [None], never an
    exception. Encoders raise [Invalid_argument] only on violated size
    caps — programming errors, not wire input. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) : sig
  type msg =
    | Group_key of { gid : int; pk : G.t }
    | Batch of {
        gid : int;  (** Destination group. *)
        iter : int;  (** Destination absolute iteration (epoch·T + layer). *)
        src_gid : int;
        sent_at : int;  (** Sender clock, µs; 0 = unclocked. Telemetry only. *)
        input : El.vec array;
            (** Pre-final-step state, for NIZK proof checks; empty in the
                Trap and Basic variants. *)
        output : El.vec array;  (** Proven output (Y not yet cleared). *)
        proofs : string array;  (** Last ReEnc step's proofs, per unit. *)
      }
    | Shuffle_step of {
        gid : int;
        iter : int;
        step : int;  (** Quorum index of the receiving member. *)
        sent_at : int;
        input : El.vec array;
        output : El.vec array;
        proof : string;  (** ShufProof bytes; empty in the basic variant. *)
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
        iter : int;  (** Absolute iteration of the final layer. *)
        batch_idx : int;
        input : El.vec array;
        output : El.vec array;
        proofs : string array;
      }

  val encode : msg -> string
  (** A complete frame (header + body), ready for the transport. *)

  type deferred
  (** A structurally-parsed frame whose elements' membership checks are
      still owed. The elements inside are
      {!Atom_group.Group_intf.GROUP.Unverified} values — they cannot reach
      group arithmetic until {!discharge} releases the message. *)

  val discharge : ?pool:Atom_exec.Pool.t -> deferred -> (msg, int) result
  (** Run the owed membership checks (one amortized batch over every
      element of the frame, spread over [?pool] when given) and build the
      message. [Error i] names the first non-member element, in wire
      order — the per-element fallback that reports *which* element a
      hostile peer planted. *)

  type decoded = Msg of msg | Unchecked of deferred
      (** [Msg] under {!Validation.Eager} / {!Validation.Batched} (the
          frame is fully validated); [Unchecked] under
          {!Validation.Deferred}. *)

  val force : ?pool:Atom_exec.Pool.t -> decoded -> msg option
  (** Collapse a [decoded] to a validated message, discharging if the
      policy deferred ([None] on a non-member element). *)

  val decode_body : ?pool:Atom_exec.Pool.t -> ?policy:Validation.t -> int -> string -> decoded option
  (** [decode_body kind body] — for callers that already split the frame
      (the streaming receive path). [policy] defaults to
      {!Validation.Eager}; [?pool] spreads a [Batched] discharge. *)

  val decode : ?pool:Atom_exec.Pool.t -> ?policy:Validation.t -> string -> decoded option
  (** Full strict decode of one frame. [None] on anything malformed — bad
      framing, bad structure, or (under [Eager]/[Batched]) a non-member
      element. *)
end
