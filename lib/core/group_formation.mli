(** Anytrust / many-trust group formation (§4.1, §4.5, §4.7).

    Groups are freshly sampled from the beacon each round; member order is
    staggered by group id so a server holds different pipeline positions in
    different groups (keeping machines busy once the network fills). Each
    group names buddy groups for key recovery. *)

type group = {
  gid : int;
  members : int array;  (** server ids in pipeline order (staggered) *)
  buddies : int array;
}

type t = { groups : group array; memberships : int list array }

val form :
  Beacon.t ->
  round:int ->
  n_servers:int ->
  n_groups:int ->
  group_size:int ->
  ?n_buddies:int ->
  unit ->
  t
(** Uniform sampling without replacement per group. *)

val of_config : ?round:int -> Config.t -> t
(** [form] over the beacon seeded by the configuration's seed: the
    formation every process of a deployment derives (round 0 unless
    given). *)

val form_trustees : Beacon.t -> round:int -> n_servers:int -> group_size:int -> int array
(** The extra trustee group of the trap variant (§4.4). *)

val all_groups_have_honest : t -> malicious:(int -> bool) -> bool
(** The anytrust property for a concrete adversary set. *)

val form_weighted :
  Beacon.t ->
  round:int ->
  weights:float array ->
  n_groups:int ->
  group_size:int ->
  ?n_buddies:int ->
  unit ->
  t
(** §7 load balancing: sample members with probability proportional to
    capacity weights (without replacement within a group). *)

val weighted_sample_distinct : Atom_util.Rng.t -> float array -> int -> int array

val estimate_all_malicious :
  trials:int -> form:(round:int -> t) -> malicious:(int -> bool) -> float
(** Monte-Carlo probability that some group has no honest member under a
    formation policy — quantifies the §7 security/throughput trade-off. *)
