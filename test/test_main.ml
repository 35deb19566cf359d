let () =
  Alcotest.run "atom"
    [
      Test_util.suite;
      Test_nat.suite;
      Test_hash.suite;
      Test_cipher.suite;
      Test_group.suite ();
      Test_fastpath.suite ();
      Test_elgamal.suite ();
      Test_zkp.suite ();
      Test_zkp.suite_p256 ();
      Test_secret.suite;
      Test_sim.suite;
      Test_topology.suite;
      Test_protocol.suite;
      Test_simulate.suite;
      Test_apps.suite;
      Test_baseline.suite;
      Test_extended.suite;
      Test_wire.suite;
      Test_validation.suite;
      Test_anonymity.suite;
      Test_misc.suite;
      Test_faults.suite;
      Test_obs.suite;
      Test_exec.suite;
      Test_rpc.suite;
      Test_ingest.suite;
      Test_decoders.suite ();
      Test_json.suite;
      Test_gates.suite;
    ]
