(* Anytrust / many-trust group formation (§4.1, §4.5, §4.7).

   Each round, the beacon samples [n_groups] groups of [group_size] distinct
   servers from the population. Within a group the member order is staggered
   by group id (§4.7) so a server holding position 0 in one group holds a
   later position in another, which keeps every machine busy once the
   pipeline fills.

   Each group also picks [n_buddies] buddy groups for key recovery (§4.5). *)

type group = {
  gid : int;
  members : int array; (* server ids, pipeline order after staggering *)
  buddies : int array; (* gids of buddy groups *)
}

type t = { groups : group array; memberships : int list array (* server id -> gids *) }

let form (beacon : Beacon.t) ~(round : int) ~(n_servers : int) ~(n_groups : int)
    ~(group_size : int) ?(n_buddies = 1) () : t =
  if group_size > n_servers then invalid_arg "Group_formation.form: group larger than population";
  let rng = Beacon.round_rng beacon ~round ~purpose:"groups" in
  let memberships = Array.make n_servers [] in
  let groups =
    Array.init n_groups (fun gid ->
        (* Sample [group_size] distinct servers: partial Fisher-Yates. *)
        let pool = Array.init n_servers Fun.id in
        for i = 0 to group_size - 1 do
          let j = i + Atom_util.Rng.int_below rng (n_servers - i) in
          let tmp = pool.(i) in
          pool.(i) <- pool.(j);
          pool.(j) <- tmp
        done;
        let members = Array.sub pool 0 group_size in
        (* Staggering: rotate the pipeline order by gid. *)
        let rotated =
          Array.init group_size (fun i -> members.((i + gid) mod group_size))
        in
        let buddies =
          Array.init n_buddies (fun b -> (gid + 1 + b) mod n_groups)
        in
        Array.iter (fun s -> memberships.(s) <- gid :: memberships.(s)) rotated;
        { gid; members = rotated; buddies })
  in
  { groups; memberships }

(* Sample the extra trustee group for the trap variant (§4.4). *)
(* The groups of round [round] for a configuration, as every process
   derives them from the beacon. *)
let of_config ?(round = 0) (config : Config.t) : t =
  form (Beacon.create ~seed:config.Config.seed) ~round ~n_servers:config.Config.n_servers
    ~n_groups:config.Config.n_groups ~group_size:config.Config.group_size ()

let form_trustees (beacon : Beacon.t) ~(round : int) ~(n_servers : int) ~(group_size : int) :
    int array =
  let rng = Beacon.round_rng beacon ~round ~purpose:"trustees" in
  let pool = Array.init n_servers Fun.id in
  for i = 0 to group_size - 1 do
    let j = i + Atom_util.Rng.int_below rng (n_servers - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 group_size

(* Check the anytrust property for a concrete adversary set (test hook). *)
let all_groups_have_honest (t : t) ~(malicious : int -> bool) : bool =
  Array.for_all (fun g -> Array.exists (fun s -> not (malicious s)) g.members) t.groups

(* ---- Capacity-weighted assignment (§7, "Load balancing") ----

   Powerful servers can appear in more groups, raising utilization — at a
   security cost: if the adversary controls high-capacity servers, the
   probability that some group is entirely malicious grows. [form_weighted]
   samples each group's members without replacement with probability
   proportional to [weights]; [estimate_all_malicious] measures the
   resulting risk by Monte Carlo so the trade-off can be quantified
   (`ablation_loadbalance` bench). *)

let weighted_sample_distinct (rng : Atom_util.Rng.t) (weights : float array) (count : int) :
    int array =
  let n = Array.length weights in
  if count > n then invalid_arg "Group_formation.weighted_sample_distinct";
  let w = Array.copy weights in
  let total = ref (Array.fold_left ( +. ) 0. w) in
  Array.init count (fun _ ->
      let x = Atom_util.Rng.float rng *. !total in
      let acc = ref 0. and chosen = ref (-1) and i = ref 0 in
      while !chosen < 0 && !i < n do
        acc := !acc +. w.(!i);
        if x < !acc && w.(!i) > 0. then chosen := !i;
        incr i
      done;
      let c = if !chosen >= 0 then !chosen else n - 1 in
      total := !total -. w.(c);
      w.(c) <- 0.;
      c)

let form_weighted (beacon : Beacon.t) ~(round : int) ~(weights : float array)
    ~(n_groups : int) ~(group_size : int) ?(n_buddies = 1) () : t =
  let n_servers = Array.length weights in
  if group_size > n_servers then
    invalid_arg "Group_formation.form_weighted: group larger than population";
  let rng = Beacon.round_rng beacon ~round ~purpose:"groups-weighted" in
  let memberships = Array.make n_servers [] in
  let groups =
    Array.init n_groups (fun gid ->
        let members = weighted_sample_distinct rng weights group_size in
        let rotated = Array.init group_size (fun i -> members.((i + gid) mod group_size)) in
        Array.iter (fun s -> memberships.(s) <- gid :: memberships.(s)) rotated;
        { gid; members = rotated; buddies = Array.init n_buddies (fun b -> (gid + 1 + b) mod n_groups) })
  in
  { groups; memberships }

(* Monte-Carlo estimate of Pr[some group has no honest member] for a given
   formation policy. *)
let estimate_all_malicious ~(trials : int)
    ~(form : round:int -> t) ~(malicious : int -> bool) : float =
  let bad = ref 0 in
  for round = 1 to trials do
    let f = form ~round in
    if not (all_groups_have_honest f ~malicious) then incr bad
  done;
  float_of_int !bad /. float_of_int trials
