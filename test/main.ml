let () =
  Alcotest.run "rr-repro"
    (Test_rng.suite @ Test_engine.suite
   @ Test_units.suite
   @ Test_packet.suite @ Test_seqset.suite @ Test_queues.suite
   @ Test_link.suite @ Test_loss.suite @ Test_dumbbell.suite @ Test_rto.suite
   @ Test_receiver.suite @ Test_sender_common.suite @ Test_variants.suite
   @ Test_rr.suite @ Test_vegas.suite @ Test_stats.suite @ Test_model.suite
   @ Test_workload.suite @ Test_faults.suite @ Test_variant_registry.suite
   @ Test_integration.suite @ Test_two_way.suite @ Test_experiments.suite
   @ Test_audit.suite @ Test_campaign.suite @ Test_topology.suite
   @ Test_flock.suite @ Test_parsers.suite @ Test_alloc.suite)
