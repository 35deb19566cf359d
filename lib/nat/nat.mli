(** Arbitrary-precision natural numbers.

    Little-endian arrays of base-2²⁶ limbs. All operations are on
    non-negative values; {!sub} raises on a negative result. Hot modular
    arithmetic should go through {!Modarith} (Montgomery form); the division
    here is a simple binary long division intended for cold paths. *)

type t

val zero : t
val one : t
val two : t
val is_zero : t -> bool

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
val to_int_exn : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val bit_length : t -> int
val test_bit : t -> int -> bool
val is_even : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val div_rem : t -> t -> t * t
(** @raise Division_by_zero *)

val rem : t -> t -> t

val mod_small : t -> int -> int
(** Remainder by a small (< 2³¹) positive int. *)

val of_bytes_be : string -> t

val to_bytes_be : ?length:int -> t -> string
(** Big-endian bytes; zero-padded to [length] when given.
    @raise Invalid_argument if the value does not fit in [length] bytes. *)

val of_hex : string -> t
val to_hex : t -> string
val of_decimal : string -> t
val to_decimal : t -> string
val pp : Format.formatter -> t -> unit

val random_below : Atom_util.Rng.t -> t -> t
(** Uniform in [0, bound), rejection-sampled. *)

val random_bits : Atom_util.Rng.t -> int -> t
(** Uniform with exactly [bits] bits (top bit forced). *)
