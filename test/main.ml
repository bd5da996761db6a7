let () =
  Alcotest.run "hemlock"
    [
      ("util", Test_util.suite);
      ("vm", Test_vm.suite);
      ("cow", Test_cow.suite);
      ("pager", Test_pager.suite);
      ("fs", Test_fs.suite);
      ("btree", Test_btree.suite);
      ("isa", Test_isa.suite);
      ("jit", Test_jit.suite);
      ("obj", Test_obj.suite);
      ("cc", Test_cc.suite);
      ("os", Test_os.suite);
      ("sched", Test_sched.suite);
      ("errno", Test_errno.suite);
      ("linker", Test_linker.suite);
      ("linkfast", Test_linkfast.suite);
      ("stable", Test_stable.suite);
      ("ldl", Test_ldl.suite);
      ("runtime", Test_runtime.suite);
      ("baseline", Test_baseline.suite);
      ("apps", Test_apps.suite);
      ("failures", Test_failures.suite);
      ("crash", Test_crash.suite);
      ("differential", Test_diff.suite);
      ("parallel", Test_parallel.suite);
      ("net", Test_net.suite);
      ("scenarios", Test_scenarios.suite);
      ("lisp", Test_lisp.suite);
    ]
