let () =
  Alcotest.run "mvl"
    [
      (* parallel runs first: its one-shard case checks that no domain
         has been spawned yet, which any later suite would break *)
      ("parallel", Test_parallel.suite);
      ("mixed_radix", Test_mixed_radix.suite);
      ("graph", Test_graph.suite);
      ("generators", Test_generators.suite);
      ("permutation", Test_permutation.suite);
      ("scc_shuffle", Test_scc_shuffle.suite);
      ("geometry", Test_geometry.suite);
      ("geom", Test_geom.suite);
      ("collinear", Test_collinear.suite);
      ("layout", Test_layout.suite);
      ("check", Test_check.suite);
      ("construction", Test_construction.suite);
      ("cluster", Test_cluster.suite);
      ("layout3d", Test_layout3d.suite);
      ("augmented", Test_augmented.suite);
      ("routing", Test_routing.suite);
      ("delay_report", Test_delay_report.suite);
      ("mutations", Test_mutations.suite);
      ("model", Test_model.suite);
      ("exact", Test_exact.suite);
      ("analysis", Test_analysis.suite);
      ("maze", Test_maze.suite);
      ("order_opt", Test_order_opt.suite);
      ("families", Test_families.suite);
      ("registry", Test_registry.suite);
      ("telemetry", Test_telemetry.suite);
      ("cache", Test_cache.suite);
      ("render", Test_render.suite);
      ("serialize", Test_serialize.suite);
      ("golden", Test_golden.suite);
      ("ring_buffer", Test_ring_buffer.suite);
      ("sim", Test_sim.suite);
      ("resilience", Test_resilience.suite);
      ("traffic", Test_traffic.suite);
      ("wormhole", Test_wormhole.suite);
      ("serve", Test_serve.suite);
    ]
