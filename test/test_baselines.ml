module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Stats = Pmem_sim.Stats
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf
module Config = Chameleondb.Config

let key i = Workload.Keyspace.key_of_index i

let put h c k ~vlen = Store_intf.write h c k (Store_intf.Sized vlen)
let get h c k = (Store_intf.read h c k).Store_intf.loc

let small_cfg = { Config.default with Config.shards = 4; memtable_slots = 32 }

let lsm variant () =
  Baselines.Pmem_lsm.store (Baselines.Pmem_lsm.create ~cfg:small_cfg variant)

let all_stores () =
  [ lsm Baselines.Pmem_lsm.Nf ();
    lsm Baselines.Pmem_lsm.F ();
    lsm Baselines.Pmem_lsm.Pink ();
    Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ());
    Baselines.Dram_hash.store (Baselines.Dram_hash.create ());
    Baselines.Novelsm.store
      (Baselines.Novelsm.create ~memtable_cap:256 ~l0_runs:2 ());
    Baselines.Matrixkv.store
      (Baselines.Matrixkv.create ~memtable_cap:256 ~l0_sublevels:2 ()) ]

(* -------------------------- Generic per-store checks --------------------- *)

let crud_check (h : Store_intf.store) =
  let c = Clock.create () in
  Alcotest.(check bool) ((Store_intf.name h) ^ ": missing") true
    (get h c 1L = None);
  put h c 1L ~vlen:8;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": present") true
    (get h c 1L <> None);
  Store_intf.delete h c 1L;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": deleted") true
    (get h c 1L = None);
  put h c 1L ~vlen:8;
  Alcotest.(check bool) ((Store_intf.name h) ^ ": reinserted") true
    (get h c 1L <> None)

let test_all_crud () = List.iter crud_check (all_stores ())

let bulk_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 8_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  for i = 0 to n - 1 do
    if get h c (key i) = None then
      Alcotest.failf "%s: key %d lost during load" (Store_intf.name h) i
  done

let test_all_bulk () = List.iter bulk_check (all_stores ())

let crash_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 4_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.crash h;
  let persisted = Vlog.persisted (Store_intf.vlog h) in
  Store_intf.recover h c;
  for i = 0 to persisted - 1 do
    let k = Vlog.key_at (Store_intf.vlog h) i in
    if get h c k = None then
      Alcotest.failf "%s: persisted entry %d lost across crash"
        (Store_intf.name h) i
  done

let test_all_crash_recover () = List.iter crash_check (all_stores ())

let test_all_model_checked () =
  List.iteri
    (fun i h -> Model_check.run ~ops:6_000 ~universe:600 ~seed:(50 + i) h)
    (all_stores ())

let test_model_with_crashes_lsm_family () =
  List.iteri
    (fun i h ->
      Model_check.run ~ops:6_000 ~universe:500 ~crash_every:1_500
        ~seed:(70 + i) h)
    [ lsm Baselines.Pmem_lsm.Nf ();
      lsm Baselines.Pmem_lsm.F ();
      lsm Baselines.Pmem_lsm.Pink ();
      Baselines.Dram_hash.store (Baselines.Dram_hash.create ());
      Baselines.Novelsm.store
        (Baselines.Novelsm.create ~memtable_cap:256 ~l0_runs:2 ());
      Baselines.Matrixkv.store
        (Baselines.Matrixkv.create ~memtable_cap:256 ~l0_sublevels:2 ()) ]

let test_model_with_crashes_pmem_hash () =
  Model_check.run ~ops:4_000 ~universe:400 ~crash_every:1_000 ~seed:81
    (Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ()))

(* ----------------------------- Design signatures ------------------------- *)

let test_pmem_hash_write_amplification () =
  let h = Baselines.Pmem_hash.store (Baselines.Pmem_hash.create ()) in
  let c = Clock.create () in
  for i = 0 to 999 do
    put h c (key i) ~vlen:8
  done;
  let st = Device.stats (Store_intf.device h) in
  let wa = st.Stats.media_write_bytes /. (1000.0 *. 24.0) in
  Alcotest.(check bool)
    (Printf.sprintf "Pmem-Hash logical WA %.1f > 10" wa)
    true (wa > 10.0)

let test_lsm_write_batching () =
  let h = lsm Baselines.Pmem_lsm.Nf () in
  let c = Clock.create () in
  for i = 0 to 9_999 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.flush h c;
  let st = Device.stats (Store_intf.device h) in
  (* batched index writes: device-level amplification stays ~1 *)
  Alcotest.(check bool) "no RMW amplification" true
    (Stats.write_amplification st < 1.1)

let test_dram_hash_restart_scans_whole_log () =
  let mk n =
    let h = Baselines.Dram_hash.store (Baselines.Dram_hash.create ()) in
    let c = Clock.create () in
    for i = 0 to n - 1 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.flush h c;
    Store_intf.crash h;
    let rc = Clock.create () in
    Store_intf.recover h rc;
    Clock.now rc
  in
  let small = mk 2_000 and large = mk 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "restart scales with log (%.0f vs %.0f)" small large)
    true
    (large > 5.0 *. small)

let test_lsm_restart_is_bounded () =
  (* LSM stores recover the MemTable tail only: restart must not scale with
     total data *)
  let mk n =
    let h = lsm Baselines.Pmem_lsm.Nf () in
    let c = Clock.create () in
    for i = 0 to n - 1 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.crash h;
    let rc = Clock.create () in
    Store_intf.recover h rc;
    Clock.now rc
  in
  let small = mk 4_000 and large = mk 40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "restart bounded (%.0f vs %.0f)" small large)
    true
    (large < 4.0 *. small)

let test_lsm_variant_footprints () =
  let loaded variant =
    let h = lsm variant () in
    let c = Clock.create () in
    for i = 0 to 9_999 do
      put h c (key i) ~vlen:8
    done;
    Store_intf.dram_footprint h
  in
  let nf = loaded Baselines.Pmem_lsm.Nf in
  let f = loaded Baselines.Pmem_lsm.F in
  let pink = loaded Baselines.Pmem_lsm.Pink in
  Alcotest.(check bool) "NF smallest" true (nf < f && nf < pink);
  Alcotest.(check bool) "PinK largest (pinned upper levels)" true (pink > f)

let test_novelsm_memtable_in_pmem () =
  let store = Baselines.Novelsm.create ~memtable_cap:100_000 () in
  let h = Baselines.Novelsm.store store in
  let c = Clock.create () in
  let before =
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes
  in
  (* stays in the (in-Pmem) MemTable: no flush, yet heavy media writes *)
  for i = 0 to 999 do
    put h c (key i) ~vlen:8
  done;
  let delta =
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes -. before
  in
  Alcotest.(check bool) "skiplist writes amplified" true
    (delta > 1000.0 *. 256.0)

let test_matrixkv_rowtable_traffic () =
  let mk_bytes sublevels =
    let h =
      Baselines.Matrixkv.store
        (Baselines.Matrixkv.create ~memtable_cap:128 ~l0_sublevels:sublevels ())
    in
    let c = Clock.create () in
    for i = 0 to 2_000 do
      put h c (key i) ~vlen:8
    done;
    (Device.stats (Store_intf.device h)).Stats.media_write_bytes
  in
  (* flushing more, smaller sublevels costs more RowTable metadata plus
     compaction rewrites *)
  Alcotest.(check bool) "metadata traffic visible" true
    (mk_bytes 2 > 2_000.0 *. 24.0)

let test_pmem_lsm_get_depth () =
  let store = Baselines.Pmem_lsm.create ~cfg:small_cfg Baselines.Pmem_lsm.Nf in
  let h = Baselines.Pmem_lsm.store store in
  let c = Clock.create () in
  for i = 0 to 9_999 do
    put h c (key i) ~vlen:8
  done;
  let deep = ref 0 in
  for i = 0 to 999 do
    let r, depth = Baselines.Pmem_lsm.get_with_level store c (key i) in
    Alcotest.(check bool) "found" true (r <> None);
    if depth > 1 then incr deep
  done;
  Alcotest.(check bool) "multi-level probing happens" true (!deep > 0)

let test_stores_have_names () =
  let names = List.map (fun h -> (Store_intf.name h)) (all_stores ()) in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))


let flush_durability_check (h : Store_intf.store) =
  let c = Clock.create () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.flush h c;
  (* after an explicit flush, a crash must lose nothing *)
  Store_intf.crash h;
  Store_intf.recover h c;
  for i = 0 to n - 1 do
    if get h c (key i) = None then
      Alcotest.failf "%s: key %d lost despite flush" (Store_intf.name h) i
  done

let test_all_flush_durability () =
  List.iter flush_durability_check (all_stores ())

let test_repeated_crashes () =
  (* crash/recover cycles must be idempotent on a clean store *)
  List.iter
    (fun (h : Store_intf.store) ->
      let c = Clock.create () in
      for i = 0 to 499 do
        put h c (key i) ~vlen:8
      done;
      Store_intf.flush h c;
      for _ = 1 to 3 do
        Store_intf.crash h;
        Store_intf.recover h c
      done;
      for i = 0 to 499 do
        if get h c (key i) = None then
          Alcotest.failf "%s: key %d lost across repeated crashes"
            (Store_intf.name h) i
      done)
    (all_stores ())

let test_update_semantics_all () =
  List.iter
    (fun (h : Store_intf.store) ->
      let c = Clock.create () in
      put h c 9L ~vlen:8;
      let l1 = get h c 9L in
      put h c 9L ~vlen:8;
      let l2 = get h c 9L in
      Alcotest.(check bool)
        ((Store_intf.name h) ^ ": update yields newer location")
        true (l2 > l1))
    (all_stores ())

(* every store must answer the same ordered scan over the same history —
   including ChameleonDB, run through the identical op sequence *)
let test_scan_parity_all () =
  let stores =
    Chameleondb.Store.store (Chameleondb.Store.create ~cfg:small_cfg ())
    :: all_stores ()
  in
  let n = 400 in
  let histories =
    List.map
      (fun h ->
        let c = Clock.create () in
        let rng = Workload.Rng.create ~seed:42 in
        for _ = 1 to 3 * n do
          let i = Workload.Rng.int rng n in
          if Workload.Rng.int rng 10 = 0 then Store_intf.delete h c (key i)
          else put h c (key i) ~vlen:8
        done;
        Store_intf.flush h c;
        (h, c))
      stores
  in
  let reference = List.hd histories in
  let scan (h, c) ~start ~limit =
    List.map fst (Store_intf.scan h c ~start ~limit)
  in
  List.iter
    (fun (start, limit) ->
      let want = scan reference ~start ~limit in
      List.iter
        (fun ((h, _) as hc) ->
          let got = scan hc ~start ~limit in
          if got <> want then
            Alcotest.failf "%s: scan(%Lu,%d) diverges (%d vs %d keys)"
              (Store_intf.name h) start limit (List.length got)
              (List.length want))
        (List.tl histories))
    [ (0L, 2 * n); (key (n / 2), 31); (key (n - 1), 10); (key n, 5) ]

(* The paper's get path (Section 2.2): a key that reached the last level
   costs one DRAM fence step, one random read of its 256 B unit and one log
   read; a miss costs the unit read alone (none below the first fence).  A
   per-slot walk of the unit would show up here as extra reads. *)
let test_chameleon_last_level_get_reads () =
  let db = Chameleondb.Store.create ~cfg:small_cfg () in
  let h = Chameleondb.Store.store db in
  let c = Clock.create () in
  let n = 12_000 in
  for i = 0 to n - 1 do
    put h c (key i) ~vlen:8
  done;
  Store_intf.flush h c;
  let last_hits = ref 0 and probed_misses = ref 0 in
  for i = 0 to n + 499 do
    let before = (Device.stats (Store_intf.device h)).Stats.read_ops in
    let r = Chameleondb.Store.read db c (key i) in
    let reads = (Device.stats (Store_intf.device h)).Stats.read_ops - before in
    match r.Store_intf.stage with
    | Store_intf.Last when reads = 2 -> incr last_hits
    | Store_intf.Miss when i >= n && reads <= 1 ->
      probed_misses := !probed_misses + reads
    | Store_intf.Last | Store_intf.Miss ->
      Alcotest.failf "key %d: %s answer took %d device reads" i
        (Store_intf.stage_name r.Store_intf.stage) reads
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most keys reached the last level (%d)" !last_hits)
    true (!last_hits > n / 2);
  Alcotest.(check bool)
    (Printf.sprintf "misses probe the last level (%d)" !probed_misses)
    true (!probed_misses > 400)

let () =
  Alcotest.run "baselines"
    [ ( "correctness",
        [ Alcotest.test_case "crud (all stores)" `Quick test_all_crud;
          Alcotest.test_case "bulk load (all stores)" `Quick test_all_bulk;
          Alcotest.test_case "crash/recover (all stores)" `Quick
            test_all_crash_recover;
          Alcotest.test_case "model-checked (all stores)" `Quick
            test_all_model_checked;
          Alcotest.test_case "model with crashes (log-replay family)" `Quick
            test_model_with_crashes_lsm_family;
          Alcotest.test_case "model with crashes (pmem-hash)" `Quick
            test_model_with_crashes_pmem_hash;
          Alcotest.test_case "flush durability (all stores)" `Quick
            test_all_flush_durability;
          Alcotest.test_case "repeated crashes (all stores)" `Quick
            test_repeated_crashes;
          Alcotest.test_case "update semantics (all stores)" `Quick
            test_update_semantics_all;
          Alcotest.test_case "scan parity (all stores)" `Quick
            test_scan_parity_all ] );
      ( "design-signatures",
        [ Alcotest.test_case "Pmem-Hash write amplification" `Quick
            test_pmem_hash_write_amplification;
          Alcotest.test_case "LSM write batching" `Quick
            test_lsm_write_batching;
          Alcotest.test_case "Dram-Hash restart scales with log" `Quick
            test_dram_hash_restart_scans_whole_log;
          Alcotest.test_case "LSM restart bounded" `Quick
            test_lsm_restart_is_bounded;
          Alcotest.test_case "variant DRAM footprints" `Quick
            test_lsm_variant_footprints;
          Alcotest.test_case "NoveLSM in-Pmem MemTable" `Quick
            test_novelsm_memtable_in_pmem;
          Alcotest.test_case "MatrixKV RowTable traffic" `Quick
            test_matrixkv_rowtable_traffic;
          Alcotest.test_case "multi-level get depth" `Quick
            test_pmem_lsm_get_depth;
          Alcotest.test_case "ChameleonDB last-level get reads" `Quick
            test_chameleon_last_level_get_reads;
          Alcotest.test_case "distinct store names" `Quick
            test_stores_have_names ] ) ]
