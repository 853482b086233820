(* End-to-end write batching: STORE.write_batch equivalence, crash
   semantics of group commit, client auto-batching, and the server
   dispatcher's group commit. *)

module Clock = Pmem_sim.Clock
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Store_intf = Kv_common.Store_intf
module Keyspace = Workload.Keyspace
module Rng = Workload.Rng
module Stores = Harness.Stores
module Injector = Fault.Injector
module Checker = Fault.Checker
module Proto = Service.Proto
module Server = Service.Server
module Endpoint = Service.Endpoint

let key = Keyspace.key_of_index

let present store clock k =
  (Store_intf.read store clock k).Store_intf.loc <> None

(* ------------------- write_batch == sequential writes ------------------- *)

(* Drive two fresh instances of the same store through the same seeded
   mix — one committing put groups through [write_batch], the other
   writing the identical stream op by op — and require identical visible
   state: same per-key presence and the same ordered scan. *)
let test_equivalence () =
  let universe = 200 in
  List.iter
    (fun spec ->
      let a = spec.Stores.make () and b = spec.Stores.make () in
      let ca = Clock.create () and cb = Clock.create () in
      let rng = Rng.create ~seed:5 in
      for _ = 1 to 60 do
        let n = 1 + Rng.int rng 8 in
        let keys = List.init n (fun _ -> key (Rng.int rng universe)) in
        let items = List.map (fun k -> (k, Store_intf.Sized 8)) keys in
        Store_intf.write_batch a ca items;
        List.iter (fun (k, spec) -> Store_intf.write b cb k spec) items;
        if Rng.int rng 5 = 0 then begin
          let k = key (Rng.int rng universe) in
          Store_intf.delete a ca k;
          Store_intf.delete b cb k
        end
      done;
      Store_intf.flush a ca;
      Store_intf.flush b cb;
      for i = 0 to universe - 1 do
        if present a ca (key i) <> present b cb (key i) then
          Alcotest.failf "%s: key %d presence differs from sequential run"
            spec.Stores.name i
      done;
      let scan s c =
        List.map fst (Store_intf.scan s c ~start:0L ~limit:universe)
      in
      Alcotest.(check (list int64))
        (spec.Stores.name ^ ": scans agree")
        (scan b cb) (scan a ca))
    (Stores.all Stores.quick)

(* --------------------- crash mid-group-commit ---------------------------- *)

(* Hybrid-Viper acks a batch with one fence.  Crash at that fence: every
   key written before the batch stays durable, and the batch itself loses
   a suffix — the surviving subset must be a prefix of the batch order,
   never a middle op alone. *)
let test_group_crash_suffix_only () =
  List.iter
    (fun tear_seed ->
      let store = (Stores.find Stores.quick "Hybrid-Viper").Stores.make () in
      let dev = Store_intf.device store in
      let inj = Injector.attach dev in
      let clock = Clock.create () in
      let prelude = List.init 10 key in
      List.iter
        (fun k -> Store_intf.write store clock k (Store_intf.Sized 8))
        prelude;
      let batch = List.init 8 (fun i -> key (100 + i)) in
      Injector.arm inj ~after:0 ();
      (match
         Store_intf.write_batch store clock
           (List.map (fun k -> (k, Store_intf.Sized 8)) batch)
       with
      | () -> Alcotest.fail "crash did not fire inside the group commit"
      | exception Injector.Crash_injected -> ());
      (match tear_seed with
      | Some seed -> Injector.set_tear inj ~seed ~keep_prob:0.5
      | None -> ());
      Store_intf.crash store;
      Injector.clear_tear inj;
      Store_intf.recover store clock;
      List.iter
        (fun k ->
          if not (present store clock k) then
            Alcotest.failf "acked pre-batch key %Ld lost" k)
        prelude;
      (* surviving batch keys must form a prefix of the batch order *)
      let survived = List.map (present store clock) batch in
      let rec prefix_ok = function
        | true :: tl -> prefix_ok tl
        | rest -> not (List.mem true rest)
      in
      Alcotest.(check bool) "suffix-only loss" true (prefix_ok survived);
      (match tear_seed with
      | None ->
        (* without torn writes nothing past the old watermark survives *)
        Alcotest.(check bool) "whole batch lost" false (List.mem true survived)
      | Some _ -> ());
      Injector.detach inj)
    [ None; Some 3; Some 7; Some 13 ]

(* The checker's oracle now covers batched acks: randomized crash points
   over the grouped-write mix must hold for the stores with a real group
   commit and for a sequential-fallback store alike. *)
let test_checker_grouped_mix () =
  List.iter
    (fun name ->
      let make = (Stores.find Stores.quick name).Stores.make in
      List.iter
        (fun (seed, after) ->
          let o = Checker.run_case ~make ~ops:1_500 ~crash_after:after ~seed () in
          if o.Checker.violations <> [] then
            Alcotest.failf "%s seed %d after %d: %s" name seed after
              (String.concat " | " o.Checker.violations))
        [ (1, 40); (11, 173); (101, 977) ])
    [ "Hybrid-Viper"; "Pmem-Hash" ]

(* ------------------------- client auto-batching -------------------------- *)

let with_server ~max_requests f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckv-test-batcher-%d.sock" (Unix.getpid ()))
  in
  let store = (Stores.find Stores.quick "Hybrid-Viper").Stores.make () in
  let clock = Clock.create () in
  let backend = Endpoint.backend_of_store ~clock store in
  let server = Serving.start ~max_requests ~path backend in
  let c = Endpoint.connect path in
  f c;
  Endpoint.close c;
  ignore (Thread.join server)

(* Linger flushes are driven by the injectable clock, so the flush point
   is exact: no flush one tick before the deadline, flush at it. *)
let test_batcher_linger_deterministic () =
  with_server ~max_requests:3 (fun c ->
      let now = ref 0.0 in
      let b =
        Endpoint.batcher ~max_count:8 ~linger:1.0 ~now:(fun () -> !now) c
      in
      Endpoint.submit b (Proto.Put (1L, Bytes.of_string "a"));
      Endpoint.submit b (Proto.Put (2L, Bytes.of_string "b"));
      Alcotest.(check int) "buffered" 2 (Endpoint.pending b);
      Alcotest.(check (option (float 1e-9))) "deadline is submit+linger"
        (Some 1.0) (Endpoint.deadline b);
      now := 0.999;
      Endpoint.tick b;
      Alcotest.(check int) "still buffered before deadline" 2
        (Endpoint.pending b);
      now := 1.0;
      Endpoint.tick b;
      Alcotest.(check int) "linger flushed" 0 (Endpoint.pending b);
      Alcotest.(check int) "one frame in flight" 1 (Endpoint.inflight b);
      (* count threshold flushes from inside submit, no tick needed *)
      let b2 =
        Endpoint.batcher ~max_count:2 ~now:(fun () -> !now) c
      in
      Endpoint.submit b2 (Proto.Put (3L, Bytes.of_string "c"));
      Endpoint.submit b2 (Proto.Put (4L, Bytes.of_string "d"));
      Alcotest.(check int) "count flush" 0 (Endpoint.pending b2);
      let r1 = Endpoint.drain b in
      let r2 = Endpoint.drain b2 in
      Alcotest.(check int) "one reply per submitted op" 2 (List.length r1);
      List.iter
        (fun r -> Alcotest.(check bool) "ok" true (r = Proto.Ok))
        (r1 @ r2);
      Alcotest.(check bool) "batched put visible" true
        (Endpoint.request c (Proto.Get 4L) <> Proto.Miss))

(* ------------------------ server group commit ---------------------------- *)

let put_frame k =
  Proto.encode_request (Proto.Put (k, Bytes.make 8 'v'))

(* A run of single-put frames queued together dispatches as one
   write_batch: the grouped-writes counter sees them, every frame still
   acks Ok, and each op gets its own service sample from its intended
   arrival. *)
let test_server_group_commit () =
  let store = (Stores.find Stores.quick "Hybrid-Viper").Stores.make () in
  let n = 64 in
  let arrivals =
    Array.init n (fun i ->
        { Server.at = float_of_int (i / 8) *. 50.0;
          conn = i mod 8;
          frame = put_frame (key i) })
  in
  let s =
    Server.run ~store ~workers:2 ~linger_ns:5_000.0 ~start_at:0.0 ~arrivals ()
  in
  Alcotest.(check int) "all executed" n s.Server.executed;
  Alcotest.(check int) "per-op service samples" n
    (Metrics.Histogram.count s.Server.put_service);
  let counter name =
    match List.assoc_opt name s.Server.counters with
    | Some v -> v
    | None -> 0.0
  in
  Alcotest.(check bool) "dispatcher grouped writes" true
    (counter "service.grouped_writes" > 0.0);
  Alcotest.(check bool) "store saw group commits" true
    (counter "hybrid_viper.group_commits" > 0.0);
  let clock = Clock.create ~at:s.Server.end_ns () in
  for i = 0 to n - 1 do
    if not (present store clock (key i)) then
      Alcotest.failf "grouped put %d not applied" i
  done

(* Each op inside a Batch frame carries the frame's intended arrival:
   the per-op samples all measure finish - frame_intended, so a B-op
   frame contributes exactly B put samples, none below the frame's own
   service time. *)
let test_batch_frame_per_op_stamps () =
  let store = (Stores.find Stores.quick "Dram-Hash").Stores.make () in
  let b = 16 in
  let reqs = List.init b (fun i -> Proto.Put (key i, Bytes.make 8 'v')) in
  let arrivals =
    [| { Server.at = 0.0; conn = 0;
         frame = Proto.encode_request (Proto.Batch reqs) } |]
  in
  let s = Server.run ~store ~workers:1 ~start_at:0.0 ~arrivals () in
  Alcotest.(check int) "one frame" 1 s.Server.executed;
  Alcotest.(check int) "B ops" b s.Server.ops_executed;
  Alcotest.(check int) "B put samples" b
    (Metrics.Histogram.count s.Server.put_service);
  Alcotest.(check bool) "samples measured from intended arrival" true
    (Metrics.Histogram.min_value s.Server.put_service > 0.0)

let () =
  Alcotest.run "batch"
    [ ( "store",
        [ Alcotest.test_case "write_batch == sequential (all stores)" `Quick
            test_equivalence ] );
      ( "crash",
        [ Alcotest.test_case "group commit loses a suffix only" `Quick
            test_group_crash_suffix_only;
          Alcotest.test_case "checker oracle covers batched acks" `Slow
            test_checker_grouped_mix ] );
      ( "client",
        [ Alcotest.test_case "linger flush is deterministic" `Quick
            test_batcher_linger_deterministic ] );
      ( "server",
        [ Alcotest.test_case "dispatcher group commit" `Quick
            test_server_group_commit;
          Alcotest.test_case "batch frame stamps every op" `Quick
            test_batch_frame_per_op_stamps ] ) ]
