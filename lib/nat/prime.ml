(* Primality testing and (safe-)prime generation.

   Miller–Rabin over Montgomery contexts. For candidates below 3.3·10^24 the
   first 13 prime bases are a deterministic test; larger candidates use the
   deterministic bases plus extra rounds with pseudo-random bases, which is
   ample for parameter generation (not adversarial input validation). *)

let small_primes =
  [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97;
     101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151; 157; 163; 167; 173; 179; 181; 191; 193;
     197; 199; 211; 223; 227; 229; 233; 239; 241; 251; 257; 263; 269; 271; 277; 281; 283; 293 |]

let deterministic_bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41 ]

(* One Miller–Rabin round: n - 1 = d·2^s with d odd. *)
let mr_round (ctx : Modarith.ctx) ~(d : Nat.t) ~(s : int) (base : Nat.t) : bool =
  let n = Modarith.modulus ctx in
  let n1 = Nat.sub n Nat.one in
  let b = Nat.rem base n in
  if Nat.is_zero b then true
  else begin
    let x = Modarith.pow ctx (Modarith.of_nat ctx b) (Modarith.plain_of_nat ctx d) in
    let x_nat = Modarith.to_nat ctx x in
    if Nat.equal x_nat Nat.one || Nat.equal x_nat n1 then true
    else begin
      let cur = ref x and ok = ref false and i = ref 1 in
      while (not !ok) && !i < s do
        cur := Modarith.sqr ctx !cur;
        if Nat.equal (Modarith.to_nat ctx !cur) n1 then ok := true;
        incr i
      done;
      !ok
    end
  end

let is_probable_prime ?(extra_rounds = 16) ?rng (n : Nat.t) : bool =
  match Nat.to_int_opt n with
  | Some v when v < 2 -> false
  | Some v when v < 4 -> true (* 2, 3 *)
  | _ ->
      if Nat.is_even n then false
      else begin
        let divisible =
          Array.exists
            (fun p ->
              Nat.mod_small n p = 0
              && not (match Nat.to_int_opt n with Some v -> v = p | None -> false))
            small_primes
        in
        if divisible then false
        else begin
          let ctx = Modarith.create n in
          let n1 = Nat.sub n Nat.one in
          let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
          let d, s = split n1 0 in
          let det_ok = List.for_all (fun b -> mr_round ctx ~d ~s (Nat.of_int b)) deterministic_bases in
          if not det_ok then false
          else if Nat.bit_length n <= 81 then true (* deterministic below 3.3e24 *)
          else begin
            let rng = match rng with Some r -> r | None -> Atom_util.Rng.create 0x9e3779b9 in
            let rec rounds i =
              if i = 0 then true
              else
                let b = Nat.add Nat.two (Nat.random_below rng (Nat.sub n (Nat.of_int 4))) in
                mr_round ctx ~d ~s b && rounds (i - 1)
            in
            rounds extra_rounds
          end
        end
      end

let random_prime (rng : Atom_util.Rng.t) ~(bits : int) : Nat.t =
  if bits < 3 then invalid_arg "Prime.random_prime: need >= 3 bits";
  let rec go () =
    let cand = Nat.random_bits rng bits in
    let cand = if Nat.is_even cand then Nat.add cand Nat.one else cand in
    if Nat.bit_length cand = bits && is_probable_prime ~rng cand then cand else go ()
  in
  go ()

(* A safe prime p = 2q + 1 with q prime.  Fast sieving: p and q must both be
   coprime to the small primes, checked cheaply before Miller–Rabin. *)
let random_safe_prime (rng : Atom_util.Rng.t) ~(bits : int) : Nat.t * Nat.t =
  if bits < 5 then invalid_arg "Prime.random_safe_prime: need >= 5 bits";
  let rec go () =
    let q = Nat.random_bits rng (bits - 1) in
    let q = if Nat.is_even q then Nat.add q Nat.one else q in
    let p = Nat.add (Nat.shift_left q 1) Nat.one in
    let sieve_ok =
      Array.for_all
        (fun sp ->
          let qm = Nat.mod_small q sp and pm = Nat.mod_small p sp in
          (qm <> 0 || (match Nat.to_int_opt q with Some v -> v = sp | None -> false))
          && (pm <> 0 || match Nat.to_int_opt p with Some v -> v = sp | None -> false))
        small_primes
    in
    if
      sieve_ok
      && Nat.bit_length p = bits
      && is_probable_prime ~rng q
      && is_probable_prime ~rng p
    then (p, q)
    else go ()
  in
  go ()
