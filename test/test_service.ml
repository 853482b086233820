module Proto = Service.Proto
module Server = Service.Server
module Loadgen = Service.Loadgen
module Admission = Service.Admission
module Endpoint = Service.Endpoint
module Rng = Workload.Rng
module Histogram = Metrics.Histogram

let mk_store () =
  let cfg =
    { Chameleondb.Config.default with
      Chameleondb.Config.shards = 4;
      memtable_slots = 64 }
  in
  let db = Chameleondb.Store.create ~cfg () in
  (db, Chameleondb.Store.store db)

(* --------------------------------- Proto -------------------------------- *)

let sample_reqs =
  [ Proto.Get 1L;
    Proto.Get Int64.min_int;
    Proto.Put (42L, Bytes.of_string "hello");
    Proto.Put (7L, Bytes.empty);
    Proto.Delete 0xdeadbeefL;
    Proto.Batch
      [ Proto.Put (1L, Bytes.of_string "a"); Proto.Get 2L; Proto.Delete 3L ];
    Proto.Batch [];
    Proto.Scan (0L, 1);
    Proto.Scan (0xfeedfaceL, 100);
    Proto.Scan (Int64.minus_one, Proto.max_batch) ]

let sample_replies =
  [ Proto.Ok;
    Proto.Value (Bytes.of_string "payload");
    Proto.Value Bytes.empty;
    Proto.Hit 123;
    Proto.Miss;
    Proto.Shed;
    Proto.Err "bad things";
    Proto.Not_owner 3;
    Proto.Replies [ Proto.Ok; Proto.Miss; Proto.Hit 9; Proto.Err "x" ];
    Proto.Replies [ Proto.Not_owner 0 ];
    Proto.Replies [];
    Proto.Values [];
    Proto.Values [ (5L, 3, Some (Bytes.of_string "abc")); (6L, 7, None) ];
    Proto.Values [ (Int64.max_int, 0, Some Bytes.empty) ] ]

let sample_msgs =
  List.map (fun r -> Proto.Request r) sample_reqs
  @ List.map (fun r -> Proto.Reply r) sample_replies

let test_roundtrip () =
  List.iter
    (fun msg ->
      let d = Proto.decoder () in
      Proto.feed_bytes d (Proto.encode msg);
      (match Proto.next d with
      | `Msg got ->
        Alcotest.(check bool)
          (Format.asprintf "roundtrip %a"
             (fun ppf -> function
               | Proto.Request r | Proto.Tagged (_, r) -> Proto.pp_req ppf r
               | Proto.Reply r -> Proto.pp_reply ppf r)
             msg)
          true (got = msg)
      | `Await -> Alcotest.fail "decoder starved on a complete frame"
      | `Corrupt m -> Alcotest.fail ("corrupt: " ^ m));
      Alcotest.(check bool) "drained" true (Proto.next d = `Await))
    sample_msgs

let test_incremental_all_split_points () =
  (* every message, split at every byte boundary, must decode identically *)
  List.iter
    (fun msg ->
      let b = Proto.encode msg in
      for split = 0 to Bytes.length b do
        let d = Proto.decoder () in
        Proto.feed d b ~off:0 ~len:split;
        (* nothing complete yet unless the split covers the whole frame *)
        if split < Bytes.length b then
          Alcotest.(check bool) "await" true (Proto.next d = `Await);
        Proto.feed d b ~off:split ~len:(Bytes.length b - split);
        match Proto.next d with
        | `Msg got -> Alcotest.(check bool) "msg equal" true (got = msg)
        | _ -> Alcotest.fail "no message after full frame"
      done)
    sample_msgs

let test_byte_at_a_time_pipeline () =
  (* several frames back to back, fed one byte at a time *)
  let frames = List.map Proto.encode sample_msgs in
  let all = Bytes.concat Bytes.empty frames in
  let d = Proto.decoder () in
  let got = ref [] in
  Bytes.iter
    (fun ch ->
      Proto.feed_bytes d (Bytes.make 1 ch);
      let rec drain () =
        match Proto.next d with
        | `Msg m ->
          got := m :: !got;
          drain ()
        | `Await -> ()
        | `Corrupt m -> Alcotest.fail ("corrupt: " ^ m)
      in
      drain ())
    all;
  Alcotest.(check int) "all decoded" (List.length sample_msgs)
    (List.length !got);
  Alcotest.(check bool) "in order" true (List.rev !got = sample_msgs)

let test_corrupt_rejected () =
  (* bad magic *)
  let d = Proto.decoder () in
  Proto.feed_bytes d (Bytes.of_string "\x00\x01\x02\x03\x04\x05");
  (match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* corrupt is sticky, even if good bytes follow *)
  Proto.feed_bytes d (Proto.encode_request (Proto.Get 1L));
  (match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt decoder recovered");
  (* truncated body: length says 100, only tag arrives; decoder must wait,
     and a frame whose body disagrees with its length must be rejected *)
  let d = Proto.decoder () in
  let b = Buffer.create 16 in
  Buffer.add_char b '\xC7';
  Buffer.add_int32_le b 2l;
  Buffer.add_uint8 b 0x01;
  (* get tag but only 1 of the promised 2 bytes of body: parse fails *)
  Buffer.add_uint8 b 0x00;
  Proto.feed_bytes d (Buffer.to_bytes b);
  (match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "short get body accepted");
  (* oversized length *)
  let d = Proto.decoder () in
  let b = Buffer.create 8 in
  Buffer.add_char b '\xC7';
  Buffer.add_int32_le b 0x7fffffffl;
  Proto.feed_bytes d (Buffer.to_bytes b);
  match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized frame accepted"

let test_fuzz_never_raises () =
  (* hostile bytes in random chunk sizes: the decoder may await or go
     corrupt, but must never raise and must stay corrupt once poisoned *)
  let rng = Rng.create ~seed:1234 in
  for _trial = 1 to 200 do
    let n = 1 + Rng.int rng 300 in
    let b =
      Bytes.init n (fun _ ->
          (* bias towards the magic byte so framing paths get exercised *)
          if Rng.int rng 4 = 0 then '\xC7'
          else Char.chr (Rng.int rng 256))
    in
    let d = Proto.decoder () in
    let corrupted = ref false in
    let off = ref 0 in
    while !off < n do
      let len = min (1 + Rng.int rng 16) (n - !off) in
      Proto.feed d b ~off:!off ~len;
      off := !off + len;
      let rec drain () =
        match Proto.next d with
        | `Msg _ -> drain ()
        | `Await ->
          if !corrupted then Alcotest.fail "corrupt state was not sticky"
        | `Corrupt _ -> corrupted := true
      in
      drain ()
    done
  done

let test_fuzz_bitflip_roundtrips () =
  (* flip one byte of a valid frame: decode must reject or produce some
     message without raising; flipping payload bytes may legally still
     decode *)
  let rng = Rng.create ~seed:99 in
  List.iter
    (fun msg ->
      let orig = Proto.encode msg in
      for _ = 1 to 50 do
        let b = Bytes.copy orig in
        let i = Rng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)));
        let d = Proto.decoder () in
        Proto.feed_bytes d b;
        match Proto.next d with
        | `Msg _ | `Await | `Corrupt _ -> ()
      done)
    sample_msgs

let test_encode_rejects_nesting () =
  Alcotest.check_raises "nested batch" (Invalid_argument "Proto: nested Batch")
    (fun () ->
      ignore (Proto.encode_request (Proto.Batch [ Proto.Batch [] ])));
  match
    Proto.encode_reply (Proto.Replies [ Proto.Replies [] ])
  with
  | _ -> Alcotest.fail "nested replies accepted"
  | exception Invalid_argument _ -> ()

let test_scan_frame_validation () =
  (* encode refuses out-of-range scan limits *)
  List.iter
    (fun limit ->
      match Proto.encode_request (Proto.Scan (1L, limit)) with
      | _ -> Alcotest.failf "scan limit %d accepted" limit
      | exception Invalid_argument _ -> ())
    [ 0; -1; Proto.max_batch + 1 ];
  (* decode refuses a scan frame whose limit field is zero: take a valid
     frame and smash the u16 limit (last two bytes of the body) *)
  let b = Proto.encode_request (Proto.Scan (1L, 2)) in
  Bytes.set_uint16_le b (Bytes.length b - 2) 0;
  let d = Proto.decoder () in
  Proto.feed_bytes d b;
  (match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "zero-limit scan frame accepted");
  (* decode refuses a Values entry whose has-value flag is neither 0 nor 1:
     flag byte sits right after the key (8) + vlen (4) of the first entry *)
  let v = Proto.encode_reply (Proto.Values [ (9L, 4, None) ]) in
  Bytes.set v (Proto.header_bytes + 1 + 2 + 8 + 4) '\x07';
  let d = Proto.decoder () in
  Proto.feed_bytes d v;
  match Proto.next d with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad has-value flag accepted"

(* -------------------------------- Server -------------------------------- *)

let preload db n =
  let clock = Pmem_sim.Clock.create () in
  for i = 0 to n - 1 do
    Chameleondb.Store.write db clock (Workload.Keyspace.key_of_index i)
      (Kv_common.Store_intf.Sized 8)
  done;
  Pmem_sim.Clock.now clock

let test_server_executes_all () =
  let db, store = mk_store () in
  let t0 = preload db 2_000 in
  let arrivals =
    Loadgen.open_loop ~seed:7 ~conns:3
      ~process:(Loadgen.Poisson { rate_mops = 1.0 })
      ~reqgen:(Loadgen.mixed_reqgen ~n_keys:2_000 ~get_frac:0.8 ~vlen:8)
      ~duration_ns:2_000_000.0 ~start_at:t0 ()
  in
  let s = Server.run ~store ~workers:4 ~start_at:t0 ~arrivals () in
  Alcotest.(check int) "all submitted" (Array.length arrivals) s.Server.submitted;
  Alcotest.(check int) "all executed" s.Server.submitted s.Server.executed;
  Alcotest.(check int) "none shed" 0 s.Server.shed;
  Alcotest.(check int) "none corrupt" 0 s.Server.corrupt;
  Alcotest.(check bool) "latency recorded" true
    (Histogram.count s.Server.service = s.Server.executed);
  Alcotest.(check bool) "time advanced" true (s.Server.end_ns > t0)

let test_server_batch_request () =
  let db, store = mk_store () in
  let t0 = preload db 100 in
  let k i = Workload.Keyspace.key_of_index i in
  let req =
    Proto.Batch
      [ Proto.Put (k 0, Bytes.of_string "x"); Proto.Get (k 0);
        Proto.Delete (k 0); Proto.Get (k 200) ]
  in
  let arrivals =
    [| { Server.at = t0; conn = 0; frame = Proto.encode_request req } |]
  in
  let s = Server.run ~store ~workers:1 ~start_at:t0 ~arrivals () in
  Alcotest.(check int) "one request" 1 s.Server.executed;
  Alcotest.(check int) "four ops" 4 s.Server.ops_executed

let test_server_corrupt_conn_isolated () =
  let db, store = mk_store () in
  let t0 = preload db 100 in
  let good i at =
    { Server.at; conn = 0;
      frame =
        Proto.encode_request
          (Proto.Get (Workload.Keyspace.key_of_index i)) }
  in
  let arrivals =
    [| good 0 t0;
       { Server.at = t0 +. 10.0; conn = 1;
         frame = Bytes.of_string "garbage bytes" };
       (* later frames on the poisoned connection are dropped... *)
       { (good 1 (t0 +. 20.0)) with Server.conn = 1 };
       (* ...but other connections keep flowing *)
       good 2 (t0 +. 30.0) |]
  in
  let s = Server.run ~store ~workers:2 ~start_at:t0 ~arrivals () in
  Alcotest.(check int) "one corrupt conn" 1 s.Server.corrupt;
  Alcotest.(check int) "good conn served" 2 s.Server.executed

let test_server_open_loop_queueing () =
  (* offered load far above capacity: service latency must grow well past
     execution latency (queueing measured from intended arrival), which a
     closed-loop run never shows *)
  let db, store = mk_store () in
  let t0 = preload db 2_000 in
  let reqgen = Loadgen.mixed_reqgen ~n_keys:2_000 ~get_frac:1.0 ~vlen:8 in
  let over =
    Server.run ~store ~workers:1 ~start_at:t0
      ~arrivals:
        (Loadgen.open_loop ~seed:3 ~process:(Loadgen.Poisson { rate_mops = 50.0 })
           ~reqgen ~duration_ns:500_000.0 ~start_at:t0 ())
      ()
  in
  let p99_service = Histogram.percentile over.Server.get_service 99.0 in
  let p99_exec = Histogram.percentile over.Server.get_execute 99.0 in
  Alcotest.(check bool) "queueing dominates under overload" true
    (p99_service > 5.0 *. p99_exec);
  Alcotest.(check bool) "queue depth grew" true (over.Server.max_depth > 10)

let test_server_closed_loop () =
  let db, store = mk_store () in
  let t0 = preload db 1_000 in
  let s =
    Server.run ~store ~workers:2 ~start_at:t0
      ~closed:
        (Loadgen.closed_loop ~conns:4 ~reqs_per_conn:250
           ~reqgen:(Loadgen.mixed_reqgen ~n_keys:1_000 ~get_frac:0.9 ~vlen:8)
           ())
      ()
  in
  Alcotest.(check int) "4x250 requests" 1_000 s.Server.executed;
  (* closed loop cannot out-run the server: queue stays near the number of
     connections *)
  Alcotest.(check bool) "bounded queue" true (s.Server.max_depth <= 4)

let test_scheduler_modes_equivalent_work () =
  let run sched =
    let db, store = mk_store () in
    let t0 = preload db 1_000 in
    let s =
      Server.run ~sched ~store ~workers:4 ~start_at:t0
        ~arrivals:
          (Loadgen.open_loop ~seed:5
             ~process:(Loadgen.Poisson { rate_mops = 2.0 })
             ~reqgen:(Loadgen.mixed_reqgen ~n_keys:1_000 ~get_frac:0.5 ~vlen:8)
             ~duration_ns:1_000_000.0 ~start_at:t0 ())
        ()
    in
    s.Server.executed
  in
  Alcotest.(check int) "same work either scheduler" (run Server.Fifo)
    (run Server.Shard_affinity)

(* ------------------------------- Admission ------------------------------ *)

let test_admission_sheds_writes_not_reads () =
  let adm = Admission.create ~burst:4.0 ~rate_mops:0.001 () in
  let put = Proto.Put (1L, Bytes.empty) in
  (* burst capacity admits the first 4 writes, then the bucket is dry *)
  for _ = 1 to 4 do
    Alcotest.(check bool) "burst admitted" true (Admission.admit adm ~now:0.0 put)
  done;
  Alcotest.(check bool) "write shed when dry" false
    (Admission.admit adm ~now:0.0 put);
  Alcotest.(check bool) "get still admitted" true
    (Admission.admit adm ~now:0.0 (Proto.Get 1L));
  (* refill: 0.001 Mops/s = 1 token per 1e6 ns *)
  Alcotest.(check bool) "write admitted after refill" true
    (Admission.admit adm ~now:1_100_000.0 put);
  Alcotest.(check int) "shed count" 1 (Admission.shed adm)

let test_admission_gpm_costs_more () =
  let active = ref false in
  let signals =
    { Chameleondb.Modes.Signals.none with
      Chameleondb.Modes.Signals.get_protect_active = (fun () -> !active) }
  in
  let count_admitted () =
    let adm =
      Admission.create ~signals ~burst:8.0 ~rate_mops:0.0001 ~gpm_write_cost:4.0
        ()
    in
    let n = ref 0 in
    for _ = 1 to 20 do
      if Admission.admit adm ~now:0.0 (Proto.Put (1L, Bytes.empty)) then incr n
    done;
    !n
  in
  active := false;
  let normal = count_admitted () in
  active := true;
  let protected_ = count_admitted () in
  Alcotest.(check int) "normal: 8 tokens, 8 writes" 8 normal;
  Alcotest.(check int) "gpm: 8 tokens at cost 4, 2 writes" 2 protected_

let test_server_with_admission_bounds_queue () =
  let db, store = mk_store () in
  let t0 = preload db 1_000 in
  let reqgen = Loadgen.mixed_reqgen ~n_keys:1_000 ~get_frac:0.0 ~vlen:8 in
  let arrivals =
    Loadgen.open_loop ~seed:8 ~process:(Loadgen.Poisson { rate_mops = 40.0 })
      ~reqgen ~duration_ns:400_000.0 ~start_at:t0 ()
  in
  let unprotected =
    let db2, store2 = mk_store () in
    let t2 = preload db2 1_000 in
    ignore db2;
    Server.run ~store:store2 ~workers:1 ~start_at:t2
      ~arrivals:
        (Loadgen.open_loop ~seed:8
           ~process:(Loadgen.Poisson { rate_mops = 40.0 })
           ~reqgen ~duration_ns:400_000.0 ~start_at:t2 ())
      ()
  in
  ignore db;
  let adm = Admission.create ~burst:32.0 ~rate_mops:1.0 () in
  let s = Server.run ~admission:adm ~store ~workers:1 ~start_at:t0 ~arrivals () in
  Alcotest.(check bool) "some shed under overload" true (s.Server.shed > 0);
  Alcotest.(check bool) "queue bounded vs unprotected" true
    (s.Server.max_depth < unprotected.Server.max_depth / 2);
  Alcotest.(check int) "shed + executed = submitted" s.Server.submitted
    (s.Server.executed + s.Server.shed)

(* ------------------------------- Loadgen -------------------------------- *)

let test_open_loop_schedule_sorted_and_deterministic () =
  let mk () =
    Loadgen.open_loop ~seed:11 ~conns:4
      ~process:(Loadgen.Poisson { rate_mops = 1.0 })
      ~reqgen:(Loadgen.mixed_reqgen ~n_keys:100 ~get_frac:0.5 ~vlen:8)
      ~duration_ns:1_000_000.0 ~start_at:42.0 ()
  in
  let a = mk () and b = mk () in
  Alcotest.(check int) "deterministic count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "deterministic frames" true (x = b.(i)))
    a;
  Alcotest.(check bool) "~1000 arrivals at 1 Mreq/s over 1 ms" true
    (Array.length a > 700 && Array.length a < 1300);
  let sorted = ref true in
  Array.iteri
    (fun i x -> if i > 0 then sorted := !sorted && a.(i - 1).Server.at <= x.Server.at)
    a;
  Alcotest.(check bool) "sorted by time" true !sorted;
  Alcotest.(check bool) "after start" true (a.(0).Server.at > 42.0)

let test_square_wave_rates () =
  let p =
    Loadgen.Square
      { base_mops = 1.0; burst_mops = 10.0; period_ns = 1000.0; duty = 0.3 }
  in
  Alcotest.(check (float 0.0)) "burst phase" 10.0 (Loadgen.rate_at p ~elapsed_ns:100.0);
  Alcotest.(check (float 0.0)) "base phase" 1.0 (Loadgen.rate_at p ~elapsed_ns:500.0);
  Alcotest.(check (float 0.0)) "next period bursts again" 10.0
    (Loadgen.rate_at p ~elapsed_ns:1250.0)

let test_same_seed_identical_streams () =
  (* the cluster experiments lean on this: two runs with the same seed
     must see byte-identical request streams, for Poisson and for the
     bursty square wave alike *)
  let mk process seed =
    Loadgen.open_loop ~seed ~conns:3 ~process
      ~reqgen:(Loadgen.mixed_reqgen ~n_keys:500 ~get_frac:0.7 ~vlen:8)
      ~duration_ns:800_000.0 ~start_at:10.0 ()
  in
  let identical a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           x.Server.at = y.Server.at
           && x.Server.conn = y.Server.conn
           && Bytes.equal x.Server.frame y.Server.frame)
         a b
  in
  List.iter
    (fun (name, process) ->
      let a = mk process 21 and b = mk process 21 and c = mk process 22 in
      Alcotest.(check bool)
        (name ^ ": same seed is byte-identical")
        true (identical a b);
      Alcotest.(check bool)
        (name ^ ": different seed differs")
        false (identical a c))
    [ ("poisson", Loadgen.Poisson { rate_mops = 1.5 });
      ( "square",
        Loadgen.Square
          { base_mops = 0.5; burst_mops = 5.0; period_ns = 100_000.0;
            duty = 0.3 } ) ]

let test_merge_interleaves () =
  let mk base =
    Array.init 5 (fun i ->
        { Server.at = base +. (float_of_int i *. 10.0); conn = 0;
          frame = Bytes.empty })
  in
  let m = Loadgen.merge [ mk 0.0; mk 3.0 ] in
  Alcotest.(check int) "all kept" 10 (Array.length m);
  let sorted = ref true in
  Array.iteri
    (fun i x -> if i > 0 then sorted := !sorted && m.(i - 1).Server.at <= x.Server.at)
    m;
  Alcotest.(check bool) "sorted" true !sorted

(* ------------------------------- Endpoint ------------------------------- *)

let test_endpoint_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckv-test-%d.sock" (Unix.getpid ()))
  in
  let db, _store = mk_store () in
  ignore db;
  let cfg =
    { Chameleondb.Config.default with
      Chameleondb.Config.shards = 4;
      memtable_slots = 64;
      materialize_values = true }
  in
  let sdb = Chameleondb.Store.create ~cfg () in
  let clock = Pmem_sim.Clock.create () in
  let backend =
    Endpoint.backend_of_store ~clock (Chameleondb.Store.store sdb)
  in
  let server = Serving.start ~max_requests:5 ~path backend in
  let c = Endpoint.connect path in
  Alcotest.(check bool) "put ok" true
    (Endpoint.request c (Proto.Put (5L, Bytes.of_string "abc")) = Proto.Ok);
  Alcotest.(check bool) "get returns value" true
    (Endpoint.request c (Proto.Get 5L) = Proto.Value (Bytes.of_string "abc"));
  Alcotest.(check bool) "miss" true
    (Endpoint.request c (Proto.Get 6L) = Proto.Miss);
  Alcotest.(check bool) "delete ok" true
    (Endpoint.request c (Proto.Delete 5L) = Proto.Ok);
  Alcotest.(check bool) "deleted is miss" true
    (Endpoint.request c (Proto.Get 5L) = Proto.Miss);
  Endpoint.close c;
  ignore (Thread.join server)

let test_endpoint_batch_and_malformed_inner () =
  (* Batch end-to-end over the socket: one frame in, per-op replies out.
     Then a batch frame whose inner op carries an unknown tag: the server
     must answer [Err] and close that connection (sticky corrupt), while
     continuing to serve fresh connections. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ckv-test-batch-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { Chameleondb.Config.default with
      Chameleondb.Config.shards = 4;
      memtable_slots = 64;
      materialize_values = true }
  in
  let sdb = Chameleondb.Store.create ~cfg () in
  let clock = Pmem_sim.Clock.create () in
  let backend =
    Endpoint.backend_of_store ~clock (Chameleondb.Store.store sdb)
  in
  (* corrupt frames do not count as served requests, so exactly two good
     requests let the server exit *)
  let server = Serving.start ~max_requests:2 ~path backend in
  (* 1: a pipelined batch gets one reply per inner op, in order *)
  let c = Endpoint.connect path in
  (match
     Endpoint.request c
       (Proto.Batch
          [ Proto.Put (9L, Bytes.of_string "vv"); Proto.Get 9L;
            Proto.Delete 9L; Proto.Get 9L ])
   with
  | Proto.Replies [ Proto.Ok; Proto.Value v; Proto.Ok; Proto.Miss ] ->
    Alcotest.(check string) "batch get sees the batch put" "vv"
      (Bytes.to_string v)
  | r -> Alcotest.failf "unexpected batch reply: %a" Proto.pp_reply r);
  Endpoint.close c;
  (* 2: same frame, inner op tag smashed to an unknown value *)
  let frame = Proto.encode_request (Proto.Batch [ Proto.Get 1L ]) in
  Bytes.set frame (Bytes.length frame - 9) '\xEE';
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let off = ref 0 in
  while !off < Bytes.length frame do
    off := !off + Unix.write fd frame !off (Bytes.length frame - !off)
  done;
  let d = Proto.decoder () in
  let buf = Bytes.create 1024 in
  let rec read_reply () =
    match Proto.next d with
    | `Msg (Proto.Reply r) -> r
    | `Msg (Proto.Request _ | Proto.Tagged _) ->
      Alcotest.fail "server sent a request"
    | `Corrupt m -> Alcotest.fail ("client decoder corrupt: " ^ m)
    | `Await ->
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then Alcotest.fail "connection closed before the Err reply";
      Proto.feed d buf ~off:0 ~len:n;
      read_reply ()
  in
  (match read_reply () with
  | Proto.Err _ -> ()
  | r -> Alcotest.failf "malformed batch earned %a, not Err" Proto.pp_reply r);
  (* the poisoned connection is closed, not resumed *)
  let rec read_eof () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> read_eof ()
  in
  read_eof ();
  Unix.close fd;
  (* 3: the server still serves fresh connections afterwards *)
  let c2 = Endpoint.connect path in
  Alcotest.(check bool) "server survives the poisoned connection" true
    (Endpoint.request c2 (Proto.Get 1L) = Proto.Miss);
  Endpoint.close c2;
  ignore (Thread.join server)

let test_endpoint_redirect () =
  (* routing-aware backend: keys the redirect function disowns earn an
     explicit [Not_owner] hint — standalone and inside a batch — and are
     never executed against the store *)
  let cfg =
    { Chameleondb.Config.default with
      Chameleondb.Config.shards = 4;
      memtable_slots = 64 }
  in
  let sdb = Chameleondb.Store.create ~cfg () in
  let clock = Pmem_sim.Clock.create () in
  let redirect k = if k = 5L then Some 3 else None in
  let backend =
    Endpoint.backend_of_store ~redirect ~clock (Chameleondb.Store.store sdb)
  in
  Alcotest.(check bool) "get refused" true
    (backend (Proto.Get 5L) = Proto.Not_owner 3);
  Alcotest.(check bool) "put refused" true
    (backend (Proto.Put (5L, Bytes.of_string "x")) = Proto.Not_owner 3);
  Alcotest.(check bool) "delete refused" true
    (backend (Proto.Delete 5L) = Proto.Not_owner 3);
  Alcotest.(check bool) "owned keys still served" true
    (backend (Proto.Put (6L, Bytes.of_string "y")) = Proto.Ok);
  (match backend (Proto.Batch [ Proto.Get 5L; Proto.Get 6L ]) with
  | Proto.Replies [ Proto.Not_owner 3; (Proto.Hit _ | Proto.Value _) ] -> ()
  | r -> Alcotest.failf "batch redirect: %a" Proto.pp_reply r);
  (* the refused put really did not land *)
  let module S = Kv_common.Store_intf in
  let got = S.read (Chameleondb.Store.store sdb) clock 5L in
  Alcotest.(check bool) "refused put never landed" true (got.S.loc = None);
  (* scans cannot be range-partitioned by a hash router: refused outright *)
  match backend (Proto.Scan (0L, 10)) with
  | Proto.Err _ -> ()
  | r -> Alcotest.failf "routed scan earned %a, not Err" Proto.pp_reply r

let test_backend_scan () =
  (* scan through the endpoint backend: ordered, value-carrying, limit
     honoured; starts past the last key return an empty Values *)
  let cfg =
    { Chameleondb.Config.default with
      Chameleondb.Config.shards = 4;
      memtable_slots = 64;
      materialize_values = true }
  in
  let sdb = Chameleondb.Store.create ~cfg () in
  let clock = Pmem_sim.Clock.create () in
  let backend =
    Endpoint.backend_of_store ~clock (Chameleondb.Store.store sdb)
  in
  let keys = [ 40L; 10L; 30L; 20L; 50L ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) "put ok" true
        (backend (Proto.Put (k, Bytes.of_string (Printf.sprintf "v%Ld" k)))
        = Proto.Ok))
    keys;
  (match backend (Proto.Scan (15L, 3)) with
  | Proto.Values entries ->
    Alcotest.(check (list int64)) "ordered keys from start" [ 20L; 30L; 40L ]
      (List.map (fun (k, _, _) -> k) entries);
    List.iter
      (fun (k, vlen, v) ->
        let want = Printf.sprintf "v%Ld" k in
        Alcotest.(check int) "vlen matches" (String.length want) vlen;
        match v with
        | Some b -> Alcotest.(check string) "value carried" want (Bytes.to_string b)
        | None -> Alcotest.fail "materialized store returned no value")
      entries
  | r -> Alcotest.failf "scan earned %a" Proto.pp_reply r);
  match backend (Proto.Scan (51L, 5)) with
  | Proto.Values [] -> ()
  | r -> Alcotest.failf "past-the-end scan earned %a" Proto.pp_reply r

(* ----------------------------- counters diff ----------------------------- *)

let test_run_counters_isolated () =
  (* two consecutive Server.run calls: the second result's counter deltas
     must not include the first run's traffic *)
  Obs.Counters.reset_all ();
  let run () =
    let db, store = mk_store () in
    let t0 = preload db 500 in
    ignore db;
    Server.run ~store ~workers:2 ~start_at:t0
      ~arrivals:
        (Loadgen.open_loop ~seed:4
           ~process:(Loadgen.Poisson { rate_mops = 1.0 })
           ~reqgen:(Loadgen.mixed_reqgen ~n_keys:500 ~get_frac:0.5 ~vlen:8)
           ~duration_ns:500_000.0 ~start_at:t0 ())
      ()
  in
  let a = run () in
  let b = run () in
  let enq r =
    match List.assoc_opt "service.enqueued" r.Server.counters with
    | Some v -> v
    | None -> 0.0
  in
  Alcotest.(check bool) "first run counted" true (enq a > 0.0);
  Alcotest.(check (float 1.0)) "second run counts only itself"
    (float_of_int b.Server.executed)
    (enq b)

let () =
  Alcotest.run "service"
    [ ( "proto",
        [ Alcotest.test_case "roundtrip all variants" `Quick test_roundtrip;
          Alcotest.test_case "incremental decode at every split" `Quick
            test_incremental_all_split_points;
          Alcotest.test_case "byte-at-a-time pipeline" `Quick
            test_byte_at_a_time_pipeline;
          Alcotest.test_case "corrupt frames rejected" `Quick
            test_corrupt_rejected;
          Alcotest.test_case "fuzz: hostile bytes never raise" `Quick
            test_fuzz_never_raises;
          Alcotest.test_case "fuzz: bit flips never raise" `Quick
            test_fuzz_bitflip_roundtrips;
          Alcotest.test_case "encode rejects nesting" `Quick
            test_encode_rejects_nesting;
          Alcotest.test_case "scan/values frame validation" `Quick
            test_scan_frame_validation ] );
      ( "server",
        [ Alcotest.test_case "executes every arrival" `Quick
            test_server_executes_all;
          Alcotest.test_case "batch request counts its ops" `Quick
            test_server_batch_request;
          Alcotest.test_case "corrupt connection is isolated" `Quick
            test_server_corrupt_conn_isolated;
          Alcotest.test_case "open loop measures queueing" `Quick
            test_server_open_loop_queueing;
          Alcotest.test_case "closed loop self-limits" `Quick
            test_server_closed_loop;
          Alcotest.test_case "schedulers do the same work" `Quick
            test_scheduler_modes_equivalent_work ] );
      ( "admission",
        [ Alcotest.test_case "sheds writes, spares reads" `Quick
            test_admission_sheds_writes_not_reads;
          Alcotest.test_case "GPM raises the write cost" `Quick
            test_admission_gpm_costs_more;
          Alcotest.test_case "bounds the queue under overload" `Quick
            test_server_with_admission_bounds_queue ] );
      ( "loadgen",
        [ Alcotest.test_case "deterministic sorted schedule" `Quick
            test_open_loop_schedule_sorted_and_deterministic;
          Alcotest.test_case "square wave rates" `Quick test_square_wave_rates;
          Alcotest.test_case "same seed, byte-identical streams" `Quick
            test_same_seed_identical_streams;
          Alcotest.test_case "merge interleaves streams" `Quick
            test_merge_interleaves ] );
      ( "endpoint",
        [ Alcotest.test_case "unix socket roundtrip" `Quick
            test_endpoint_roundtrip;
          Alcotest.test_case "batch over socket, malformed inner op" `Quick
            test_endpoint_batch_and_malformed_inner;
          Alcotest.test_case "redirect refuses disowned keys" `Quick
            test_endpoint_redirect;
          Alcotest.test_case "scan through the backend" `Quick
            test_backend_scan ] );
      ( "counters",
        [ Alcotest.test_case "runs do not leak into each other" `Quick
            test_run_counters_isolated ] ) ]
