(* The flags a cluster configuration travels in ([Config.flags]), read by
   both binaries as one cmdliner term over a starting configuration. *)

open Cmdliner

let config (base : Atom_core.Config.t) : Atom_core.Config.t Term.t =
  let flag acc (f : Atom_core.Config.flag) =
    Term.(
      const (fun c s -> Result.bind c (fun c -> f.set c s))
      $ acc
      $ Arg.(value & opt string (f.get base) & info [ f.name ] ~docv:"VALUE" ~doc:f.doc))
  in
  Term.term_result' (List.fold_left flag (Term.const (Ok base)) Atom_core.Config.flags)
