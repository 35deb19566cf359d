(* First-class-module handles on the available group backends.

   Every backend implements the full [Group_intf.GROUP] signature including
   the multi-exponentiation fast path: [P256] with comb tables, Straus /
   Pippenger and batch affine normalization, [Zp] with Modarith's Straus
   and an honest [pow_many] (a pooled map of [pow], whose Montgomery
   contexts still cache fixed-base window tables). *)

let p256 () : (module Group_intf.GROUP) = (module P256)

let zp_test = Zp.test_group
(** 96-bit Schnorr group: fast, for tests and examples. *)

let zp_medium = Zp.medium_group
(** 256-bit Schnorr group: realistic size without curve arithmetic. *)

let available : (string * (unit -> (module Group_intf.GROUP))) list =
  [ ("p256", p256); ("zp-test", zp_test); ("zp-medium", zp_medium) ]

let by_name (name : string) : (module Group_intf.GROUP) =
  match List.assoc_opt name available with
  | Some make -> make ()
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.by_name: unknown group %S (available: %s)" name
           (String.concat ", " (List.map fst available)))
