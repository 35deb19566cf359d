(** NIST P-256 (secp256r1), the curve used by the paper's prototype (§5).

    The full {!Group_intf.GROUP} surface — including the [?pool]-taking
    multi-exponentiation batch entry points — plus the handful of
    curve-level hooks the known-answer tests inspect. Everything else
    (Jacobian internals, comb and window tables, the Straus/Pippenger
    engines) is private to the implementation. *)

open Atom_nat

type t = Inf | Aff of Modarith.el * Modarith.el
    (** Canonical affine representation, exposed so known-answer tests can
        check raw coordinates; [equal] is structural. Construct values
        through the group operations or [of_bytes] — a hand-built [Aff]
        is not guaranteed to lie on the curve. *)

include Group_intf.GROUP with type t := t

val on_curve : t -> bool
(** Does the point satisfy the curve equation? (Always [true] for values
    produced by this module.) *)

val p : Nat.t
(** The field prime. *)

val n : Nat.t
(** The group order, the modulus of the scalar field. *)

val fp : Modarith.ctx
(** The field context, for tests that inspect coordinates. *)

(** {1 Test hooks} *)

val comb_builds : unit -> int
(** Comb tables built so far by this process, the generator's included. A
    base gets one once it has carried 16 scalars in a domain. *)

val window_builds : unit -> int
(** One-row window tables built so far by this process. A base gets one
    once it has carried 2 scalars in a domain. *)
