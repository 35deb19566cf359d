(* The multi-process node runtime: Atom's per-group pipeline, split across
   real processes and driven by wire messages.

   [Protocol.process_group] executes a group's iteration as one in-memory
   loop over the quorum. Here the same choreography runs as messages
   between the actual member processes, carrying all per-step state in the
   message (members are stateless between messages; only the group head
   accumulates):

     head (pos 1)        shuffles, sends Shuffle_step to pos 2
     pos p               verifies pos p-1's ShufProof, shuffles, forwards
     tail (pos q)        sends its step back to the head (step = q+1)
     head                verifies the tail, divides into β batches,
                         runs its ReEnc step, sends Reenc_step to pos 2
     pos p               verifies pos p-1's ReEnc proofs, steps, forwards
     tail                sends Batch to the next-layer head — which
                         verifies the tail's proofs (Algorithm 2 step 3b)
                         — or Exit_batch to the coordinator at the last
                         layer

   In the single-process engine every member verifies every proof; here
   each proof is checked by its successor in the pipeline (and the final
   step by the receiving group / coordinator), which preserves the
   anytrust argument as long as some honest member sits downstream of
   every dishonest one — the h ≥ 1 honest member per group is somewhere in
   the chain, and an abort anywhere stops the round.

   Every process — the N nodes and the coordinator — derives identical key
   material by running [Protocol.setup] over the same seeded RNG, so no
   secret ever crosses the wire and cross-process runs are comparable to
   the single-process reference round. A production deployment would run
   the interactive DKG here; the deterministic derivation stands in for it
   so the harness can check end-to-end correctness (EXPERIMENTS.md recipe:
   published plaintexts must equal the single-process run's, as sets).

   The runtime lives in three files, joined here: [Node_shared] (what
   every process derives alike: pipeline shape and keys, the proof checks,
   §4.5 routing, the retained-frame ring), [Node_member] (a server's event
   loop, step functions and submission plane) and [Node_coord] (the
   coordinator loop and its two entry points). *)

type step_cost = Node_shared.step_cost = Verify | Shuffle | Reenc

include Node_coord.Outcome

module Make (G : Atom_group.Group_intf.GROUP) (T : Transport.S) = struct
  include Node_shared.Make (G)
  include Node_member.Make (G) (T)
  include Node_coord.Make (G) (T)
  include Node_coord.Outcome
end
