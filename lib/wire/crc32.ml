(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

   The wire header carries a CRC of the frame body so a flipped bit on the
   wire is caught before a strict decoder ever parses the payload. CRC is
   an integrity check against accidents, not an authenticator — transport
   security is TLS's job in a real deployment (DESIGN.md). *)

let table : int array =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let string (s : string) : int =
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
