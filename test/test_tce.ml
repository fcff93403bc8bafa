(* Test runner: aggregates every module's suites. *)

let () =
  Alcotest.run "tce"
    (List.concat
       [
         T_util.suite;
         T_index.suite;
         T_tensor.suite;
         T_expr.suite;
         T_opmin.suite;
         T_grid.suite;
         T_netmodel.suite;
         T_memmodel.suite;
         T_cannon.suite;
         T_fusion.suite;
         T_search.suite;
         T_searchprop.suite;
         T_strategy.suite;
         T_machine.suite;
         T_fault.suite;
         T_topology.suite;
         T_codegen.suite;
         T_runtime.suite;
         T_report.suite;
         T_obs.suite;
         T_prop.suite;
         T_serve.suite;
         T_integration.suite;
       ])
