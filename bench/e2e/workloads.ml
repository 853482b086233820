(* The six benchmark workloads.  Each [round] builds its inputs from a
   seed, sets the system up, runs one measured phase, checks every answer
   and measures a crash restart.  A run combines several rounds, each on
   its own seed (see [e2e]).  The benchmark only calls public entry
   points and reads existing counters; see README.md for why each
   workload exists and which layer it stresses. *)

module Stores = Harness.Stores
module Runner = Harness.Runner
module Config = Chameleondb.Config
module Store_intf = Kv_common.Store_intf
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Histogram = Metrics.Histogram
module Device = Pmem_sim.Device
module Stats = Pmem_sim.Stats
module Clock = Pmem_sim.Clock
module Rng = Workload.Rng
module Keyspace = Workload.Keyspace
module Server = Service.Server
module Loadgen = Service.Loadgen
module Run = Cluster.Run
module A = Obs.Attribution

let names =
  [ "load"; "read-zipf"; "mixed-uniform"; "scan"; "service"; "cluster" ]

let vlen = 8

(* Start of key indices no preload or YCSB generator reaches: the
   un-flushed tails written before crashes and the scan workload's
   inserts draw seeded ranges above it. *)
let tail_base = 1 lsl 40

(* Workload sizes, per round.  Each measured phase takes roughly 1.5-2.5 s
   on one host core; [smoke] sizes only prove the plumbing. *)
type size = {
  preload : int;
  warmup : int;
  ops : int;  (* measured-phase ops; per rung for [service] *)
  sweep : int;  (* [load] only: uniform gets after the load *)
  dirty : int;  (* un-flushed puts before the crash: 48 per shard *)
  readback : int;  (* keys read back after recovery *)
}

let size ~smoke name =
  let s preload warmup ops =
    { preload; warmup; ops; sweep = 0; dirty = 48 * 32; readback = 50_000 }
  in
  let full =
    match name with
    | "load" -> { (s 0 0 500_000) with sweep = 125_000 }
    | "read-zipf" -> s 200_000 200_000 2_000_000
    | "mixed-uniform" -> s 200_000 200_000 750_000
    | "scan" -> { (s 62_500 0 2_000) with dirty = 48 * 4 }
    | "service" -> s 500_000 0 150_000
    | "cluster" -> s 200_000 0 600_000
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  if not smoke then full
  else
    { preload = min full.preload 4_000;
      warmup = min full.warmup 2_000;
      ops = (if name = "scan" then 20 else 4_000);
      sweep = min full.sweep 1_000;
      dirty = full.dirty;
      readback = 500 }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 Measuring a phase} *)

type phase = {
  host_s : float;
  minor_words : float;
  promoted_words : float;
  top_heap_mb : float;
  counters : (string * float) list;
  attribution : A.snapshot;
  device : Stats.t;  (* summed over the stores' devices *)
  spans : (string * Probe.sums) list;
  puts : int;  (* store-level calls, summed over the checked stores *)
  gets : int;
  scans : int;
  user_bytes : float;  (* logical log bytes put *)
}

let stats_sum l =
  let s = Stats.create () in
  List.iter
    (fun (d : Stats.t) ->
      s.user_write_bytes <- s.user_write_bytes +. d.user_write_bytes;
      s.media_write_bytes <- s.media_write_bytes +. d.media_write_bytes;
      s.media_read_bytes <- s.media_read_bytes +. d.media_read_bytes;
      s.rmw_read_bytes <- s.rmw_read_bytes +. d.rmw_read_bytes;
      s.read_ops <- s.read_ops + d.read_ops;
      s.write_ops <- s.write_ops + d.write_ops;
      s.persist_ops <- s.persist_ops + d.persist_ops;
      s.live_bytes <- s.live_bytes +. d.live_bytes;
      s.write_wait_ns <- s.write_wait_ns +. d.write_wait_ns;
      s.read_wait_ns <- s.read_wait_ns +. d.read_wait_ns)
    l;
  s

let device_stats chks =
  stats_sum
    (List.map (fun c -> Stats.copy (Device.stats (Store_intf.device c.Checked.raw)))
       chks)

let measure ~name chks f =
  let sum g = List.fold_left (fun a c -> a + g c) 0 chks in
  let p0 = sum (fun c -> c.Checked.puts)
  and g0 = sum (fun c -> c.Checked.gets)
  and s0 = sum (fun c -> c.Checked.scans)
  and u0 = List.fold_left (fun a c -> a +. c.Checked.user_bytes) 0.0 chks in
  let d0 = device_stats chks in
  let c0 = Obs.Counters.snapshot () and a0 = A.snapshot () in
  let sp0 = Probe.snapshot () in
  let gc0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  let r = Probe.span ~phase:true name f in
  let host_s = Probe.seconds_since t0 in
  let gc1 = Gc.quick_stat () in
  let ph =
    { host_s;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      top_heap_mb =
        float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0;
      counters =
        Obs.Counters.diff_snapshots ~after:(Obs.Counters.snapshot ())
          ~before:c0;
      attribution = A.diff ~after:(A.snapshot ()) ~before:a0;
      device = Stats.diff ~after:(device_stats chks) ~before:d0;
      spans = Probe.diff ~after:(Probe.snapshot ()) ~before:sp0;
      puts = sum (fun c -> c.Checked.puts) - p0;
      gets = sum (fun c -> c.Checked.gets) - g0;
      scans = sum (fun c -> c.Checked.scans) - s0;
      user_bytes =
        List.fold_left (fun a c -> a +. c.Checked.user_bytes) 0.0 chks -. u0 }
  in
  (r, ph)

(* {1 What a round observes} *)

(* The simulated side of one round: raw sums and histograms, so that a run
   can pool the samples of its rounds before deriving any metric. *)
type sim = {
  ops : int;  (* client-level ops of the measured phase *)
  sim_ns : float;  (* simulated time they took *)
  read_h : Histogram.t;
  read_tail : float;  (* percentile reported as the read tail *)
  write_h : Histogram.t;
  write_tail : float;
  media_bytes : float;  (* written to the devices over the stores' life *)
  user_bytes : float;  (* logical log bytes of every put *)
  pmem_bytes : float;  (* index Pmem footprint + live log bytes *)
  keys : float;  (* distinct keys written *)
  dram_bytes : float;
  restart_us : float;
  rungs : (float * Histogram.t * float) list;
      (* [service]: offered rate, get latency, backlog ns at the last arrival *)
}

type result = {
  setup_s : float;
  host_s : float;  (* measured phase *)
  host_ops : int;  (* client-level ops of the measured phase *)
  rss_mb : float;
  sim : sim;
  layer : (string * string * float) list;  (* traced rounds only *)
  attempted : int;
  failed : int;  (* refused or failed requests, failed checks *)
  errors : string list;  (* wrong answers; empty when every check passed *)
}

(* {1 End-to-end metrics} *)

type axis =
  | Host  (** wall clock or memory of a round: median over rounds *)
  | Host_best
      (** host throughput: the fastest round, since a busy shared host
          only ever slows a round down *)
  | Sim  (** simulated: a pure function of code and seeds *)

(* Percentile by linear interpolation inside the histogram bucket that
   holds the rank, so the value moves smoothly with the sample instead of
   jumping between bucket edges. *)
let pct h p =
  if Histogram.count h = 0 then 0.0
  else begin
    let q = p /. 100.0 in
    let rec go (pv, pf) = function
      | [] -> pv
      | (v, f) :: rest ->
        if f >= q then
          if f <= pf then v else pv +. ((v -. pv) *. (q -. pf) /. (f -. pf))
        else go (v, f) rest
    in
    go (Histogram.min_value h, 0.0) (Histogram.cdf h ~points:max_int ())
  end

(* Fixed offered rates (Mreq/s) bracketing the knee, and the latency
   objective the highest sustainable rate is judged against. *)
let rates = [ 5.0; 6.0; 7.0; 8.0 ]
let reference_rate = 5.0
let slo_get_p999_ns = 20_000.0
let slo_backlog_ns = 1_000_000.0

(* Highest offered rate whose score is at most 1, interpolated linearly
   between the last passing and the first failing rung (from 0 below the
   first rung; the top rung when every rung passes). *)
let slo_max_mops scored =
  let rec go (r0, s0) = function
    | [] -> r0
    | (rate, score) :: rest ->
      if score <= 1.0 then go (rate, score) rest
      else r0 +. ((rate -. r0) *. (1.0 -. s0) /. (score -. s0))
  in
  go (0.0, 0.0) scored

(* The end-to-end metrics of a run: host metrics over the rounds [host],
   simulated metrics over the pooled sample of the rounds [sim], whose
   inputs come from different seeds.  Every metric is listed here once,
   with its unit and axis. *)
let e2e ~host ~sim =
  let over f = List.map f host in
  let sims = List.map (fun r -> r.sim) sim in
  let s0 = List.hd sims in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 sims in
  let pool hs = List.fold_left Histogram.merge (Histogram.create ()) hs in
  let read_h = pool (List.map (fun s -> s.read_h) sims)
  and write_h = pool (List.map (fun s -> s.write_h) sims) in
  let sim_mops =
    if s0.rungs = [] then
      sumf (fun s -> float_of_int s.ops) /. sumf (fun s -> s.sim_ns) *. 1000.0
    else
      (* A rung's score is the larger of get p99.9 / objective and backlog
         / allowance, each the median over rounds: near the knee one
         round's compaction storm would otherwise fail the rung for all *)
      slo_max_mops
        (List.mapi
           (fun i (rate, _, _) ->
             let at = List.map (fun s -> List.nth s.rungs i) sims in
             let p999 = median (List.map (fun (_, h, _) -> pct h 99.9) at) in
             let backlog = median (List.map (fun (_, _, b) -> b) at) in
             (rate, Float.max (p999 /. slo_get_p999_ns) (backlog /. slo_backlog_ns)))
           s0.rungs)
  in
  [ ("setup_s", "s", Host, median (over (fun r -> r.setup_s)));
    ("host_kops_per_s", "kops/s", Host_best,
     List.fold_left Float.max 0.0
       (over (fun r -> float_of_int r.host_ops /. r.host_s /. 1000.0)));
    ("peak_rss_mb", "MB", Host, median (over (fun r -> r.rss_mb)));
    ("sim_mops", "Mops/s", Sim, sim_mops);
    ("sim_read_p50_ns", "ns", Sim, pct read_h 50.0);
    ("sim_read_tail_ns", "ns", Sim, pct read_h s0.read_tail);
    ("sim_write_p50_ns", "ns", Sim, pct write_h 50.0);
    ("sim_write_tail_ns", "ns", Sim, pct write_h s0.write_tail);
    ("write_amp", "B/B", Sim, sumf (fun s -> s.media_bytes) /. sumf (fun s -> s.user_bytes));
    ("space_amp", "B/B", Sim,
     sumf (fun s -> s.pmem_bytes)
     /. (sumf (fun s -> s.keys) *. float_of_int (Vlog.entry_bytes ~vlen)));
    ("dram_bytes_per_key", "B/key", Sim,
     sumf (fun s -> s.dram_bytes) /. sumf (fun s -> s.keys));
    ("sim_restart_us", "us", Sim,
     sumf (fun s -> s.restart_us) /. float_of_int (List.length sims)) ]

(* {1 Per-layer metrics} *)

type restart = { restart_us : float; recover_host_ms : float; reads : int }

(* The per-layer metrics of a traced round, with their units.  [extra]
   supplies values measured outside the phase ([service]'s).  A metric
   that does not apply to a workload reads 0;
   [obs.trace_overhead_ratio] compares rounds, and the runner adds it. *)
let layer_metrics (ph : phase) ~ops ~restart ~extra =
  let per n x = if n <= 0 then 0.0 else x /. float_of_int n in
  let per_k n x = per n (1000.0 *. x) in
  let ratio x y = if y <= 0.0 then 0.0 else x /. y in
  let ctr name = Option.value (List.assoc_opt name ph.counters) ~default:0.0 in
  let extra name = Option.value (List.assoc_opt name extra) ~default:0.0 in
  let stage = A.stage_ns ph.attribution in
  let span name =
    Option.value (List.assoc_opt name ph.spans)
      ~default:{ Probe.s_total = 0.0; s_self = 0.0; s_count = 0 }
  in
  let gen = span "workload.next" in
  let puts = ph.puts and gets = ph.gets and scans = ph.scans in
  let d = ph.device in
  [ ("workload.host_ns_per_op", "ns/op", per gen.Probe.s_count gen.Probe.s_total);
    ("workload.loadgen_host_ns_per_req", "ns/req",
     extra "workload.loadgen_host_ns_per_req");
    ("harness.runner_self_host_ns_per_op", "ns/op",
     per ops (span "harness.run_ops").Probe.s_self);
    ("gc.minor_words_per_op", "words/op", per ops ph.minor_words);
    ("gc.promoted_words_per_op", "words/op", per ops ph.promoted_words);
    ("gc.top_heap_mb", "MB", ph.top_heap_mb);
    ("store.host_ns_per_put", "ns/put", per puts (span "store.put").Probe.s_total);
    ("store.host_ns_per_get", "ns/get", per gets (span "store.get").Probe.s_total);
    ("store.host_ns_per_scan", "ns/scan", per scans (span "store.scan").Probe.s_total);
    ("store.recover_host_ms", "ms", restart.recover_host_ms);
    ("chameleondb.flushes_per_kput", "1/kput", per_k puts (ctr "shard.flushes"));
    ("chameleondb.upper_compactions_per_kput", "1/kput",
     per_k puts (ctr "shard.upper_compactions"));
    ("chameleondb.last_compactions_per_kput", "1/kput",
     per_k puts (ctr "shard.last_compactions"));
    ("chameleondb.compaction_bytes_per_user_byte", "B/B",
     ratio (ctr "compaction.bytes") ph.user_bytes);
    ("chameleondb.put_index_insert_ns", "ns/put", per puts (stage A.Put_index_insert));
    ("chameleondb.put_flush_stall_ns", "ns/put", per puts (stage A.Put_flush_stall));
    ("chameleondb.put_compaction_stall_ns", "ns/put",
     per puts (stage A.Put_compaction_stall));
    ("chameleondb.stall_ns_per_put", "ns/put", per puts (ctr "put.stall_ns"));
    ("chameleondb.get_memtable_ns", "ns/get", per gets (stage A.Get_memtable));
    ("chameleondb.get_abi_ns", "ns/get", per gets (stage A.Get_abi));
    ("chameleondb.get_level_probe_ns", "ns/get", per gets (stage A.Get_level_probe));
    ("chameleondb.memtable_hit_rate", "ratio", per gets (ctr "get.memtable_hits"));
    ("chameleondb.abi_hit_rate", "ratio", per gets (ctr "get.abi_hits"));
    ("chameleondb.scan_stream_ns", "ns/scan", per scans (stage A.Scan_stream));
    ("kv_common.vlog_log_read_ns", "ns/get", per gets (stage A.Get_log_read));
    ("kv_common.vlog_reads_per_get", "1/get", per gets (ctr "vlog.reads"));
    ("pmem_sim.write_wait_ns_per_op", "ns/op", per ops d.Stats.write_wait_ns);
    ("pmem_sim.read_wait_ns_per_op", "ns/op", per ops d.Stats.read_wait_ns);
    ("pmem_sim.persist_ops_per_kput", "1/kput",
     per_k puts (float_of_int d.Stats.persist_ops));
    ("pmem_sim.rmw_read_bytes_per_user_byte", "B/B",
     ratio d.Stats.rmw_read_bytes ph.user_bytes);
    ("pmem_sim.read_ops_per_op", "1/op", per ops (float_of_int d.Stats.read_ops));
    ("cache.hit_rate", "ratio", per gets (ctr "cache.hits"));
    ("cache.get_ns", "ns/get", per gets (stage A.Get_cache));
    ("cache.evictions_per_kop", "1/kop", per_k ops (ctr "cache.evictions"));
    ("cache.invalidations_per_kput", "1/kput", per_k puts (ctr "cache.invalidations"));
    ("service.decode_ns", "ns/req", per ops (stage A.Svc_decode));
    ("service.queue_ns", "ns/req", per ops (stage A.Svc_queue));
    ("service.execute_ns", "ns/req", per ops (stage A.Svc_execute));
    ("service.encode_ns", "ns/req", per ops (stage A.Svc_encode));
    ("service.max_queue_depth", "count", extra "service.max_queue_depth");
    ("service.dispatch_batches_per_kreq", "1/kreq",
     per_k ops (ctr "service.dispatch_batches"));
    ("service.grouped_writes_frac", "ratio", per puts (ctr "service.grouped_writes"));
    ("service.self_host_ns_per_req", "ns/req", per ops (span "service.run").Probe.s_self);
    ("cluster.self_host_ns_per_op", "ns/op", per ops (span "cluster.run").Probe.s_self);
    ("cluster.netem_msgs_per_op", "1/op", per ops (ctr "netem.sent"));
    ("cluster.router_retries_per_kop", "1/kop", per_k ops (ctr "router.retries"));
    ("cluster.router_hedges_per_kop", "1/kop", per_k ops (ctr "router.hedges")) ]

(* {1 Shared steps} *)

let chameleon ?(cache = 0) scale =
  (Stores.chameleon ~f:(fun cfg -> { cfg with Config.cache_bytes = cache }) scale)
    .Stores.make ()

(* Generator calls become spans (and mark operations) when tracing. *)
let traced_gen f =
  if Probe.enabled () then (fun x ->
    Probe.new_op ();
    Probe.span "workload.next" (fun () -> f x))
  else f

let run_ops ~store ~threads ~start_at ~ops next =
  let next = traced_gen next in
  Runner.run_ops ~store ~threads ~start_at ~ops ~next ()

(* The stores' simulated state at the end of the measured phase.  The
   restart time is filled in once measured. *)
let sim_sample chks ~ops ~sim_ns ~read:(read_h, read_tail)
    ~write:(write_h, write_tail) =
  let sumf f = List.fold_left (fun a c -> a +. f c) 0.0 chks in
  let raw c = c.Checked.raw in
  { ops; sim_ns; read_h; read_tail; write_h; write_tail;
    media_bytes =
      sumf (fun c -> (Device.stats (Store_intf.device (raw c))).Stats.media_write_bytes);
    user_bytes = sumf (fun c -> c.Checked.user_bytes);
    pmem_bytes =
      sumf (fun c ->
          Store_intf.pmem_footprint (raw c)
          +. float_of_int (Vlog.live_bytes (Store_intf.vlog (raw c))));
    keys = sumf (fun c -> float_of_int (Keyset.size c.Checked.keys));
    dram_bytes = sumf (fun c -> Store_intf.dram_footprint (raw c));
    restart_us = 0.0;
    rungs = [] }

(* Checkpoint, write an un-flushed tail of fresh keys, crash, recover,
   then read back a seeded sample of the keys written before the
   checkpoint: every one of them must be live.  The tail averages 48 puts
   per shard, below the lowest MemTable flush threshold (0.65 x 128 = 83
   slots), so recovery replays all of it; a tail that let shards flush
   would make the replayed residue, and the restart time, vary by +-20%
   with where each shard's MemTable happened to stand. *)
let restart_check ~seed (sz : size) (chk : Checked.t) store ~at =
  let raw = chk.Checked.raw in
  let rng = Rng.create ~seed:(seed + 1) in
  let fresh = ref (tail_base + Rng.int rng (1 lsl 30)) in
  let clock = Clock.create ~at () in
  Store_intf.flush raw clock;
  let tail =
    Runner.run_ops ~store:raw ~threads:4 ~start_at:(Clock.now clock)
      ~ops:sz.dirty
      ~next:(fun () ->
        incr fresh;
        Types.Put (Keyspace.key_of_index !fresh, vlen))
      ()
  in
  let at = Stores.settled_cursor ~store:raw tail in
  Store_intf.crash raw;
  let rclock = Clock.create ~at () in
  let t0 = Probe.now_ns () in
  Store_intf.recover raw rclock;
  let recover_host_ms = Probe.seconds_since t0 *. 1000.0 in
  let restart_ns = Clock.now rclock -. at in
  let sample = Keyset.sample chk.Checked.keys rng sz.readback in
  Array.iter (fun k -> ignore (Store_intf.read store rclock k)) sample;
  (match Store_intf.check_invariants raw with
   | Ok () -> ()
   | Error e -> Checked.error chk "invariants after recovery: %s" e);
  { restart_us = restart_ns /. 1000.0; recover_host_ms;
    reads = Array.length sample }

let finish ~setup_s ~(ph : phase) ~ops ~rss ~sim ~restart ?(extra = []) ?(failed = 0)
    ?(extra_errors = []) chks =
  Probe.write_chrome_trace ();
  let nerr =
    List.fold_left (fun a c -> a + c.Checked.errors) 0 chks
    + List.length extra_errors
  in
  let errors =
    List.concat_map (fun c -> List.rev c.Checked.messages) chks @ extra_errors
  in
  { setup_s; host_s = ph.host_s; host_ops = ops; rss_mb = rss;
    sim = { sim with restart_us = restart.restart_us };
    layer =
      (if Probe.enabled () then layer_metrics ph ~ops ~restart ~extra else []);
    attempted = ops + restart.reads;
    failed = failed + nerr;
    errors = List.filteri (fun i _ -> i < 10) errors }

(* {1 Closed-loop workloads on one store} *)

(* Build, preload and warm one store, then run [ops] operations from
   [next] on [threads] simulated threads. *)
let closed_loop ~seed (sz : size) ~scale ~cache ~threads ~ordered ~tails:(rt, wt)
    next =
  let t0 = Probe.now_ns () in
  let chk, store = Checked.wrap (chameleon ~cache scale) in
  let load =
    Stores.load_unique ~store ~threads ~start_at:0.0 ~n:sz.preload ~vlen
  in
  let warm =
    run_ops ~store ~threads ~start_at:(Stores.settled_cursor ~store load)
      ~ops:sz.warmup next
  in
  (* the scan check's ordered view of the oracle, built before timing *)
  if ordered then ignore (Keyset.count_range chk.Checked.keys ~lo:0L ~hi:None);
  let setup_s = Probe.seconds_since t0 in
  let r, ph =
    measure ~name:"harness.run_ops" [ chk ] (fun () ->
        run_ops ~store ~threads ~start_at:(Stores.settled_cursor ~store warm)
          ~ops:sz.ops next)
  in
  let rss = Probe.peak_rss_mb () in
  let read_h = if ordered then r.Runner.scan_latency else r.Runner.get_latency in
  let sim =
    sim_sample [ chk ] ~ops:r.Runner.ops ~sim_ns:(Runner.sim_ns r)
      ~read:(read_h, rt) ~write:(r.Runner.put_latency, wt)
  in
  let restart = restart_check ~seed sz chk store ~at:(Stores.settled_cursor ~store r) in
  finish ~setup_s ~ph ~ops:r.Runner.ops ~rss ~sim ~restart [ chk ]

let read_zipf ~seed (sz : size) =
  let gen = Workload.Ycsb.create ~seed ~vlen ~mix:Workload.Ycsb.B ~loaded:sz.preload () in
  closed_loop ~seed sz ~scale:Stores.default ~cache:(4 lsl 20)
    ~threads:8 ~ordered:false ~tails:(99.9, 99.0)
    (fun () -> Workload.Ycsb.next gen)

(* Uniform keys: the 8 MB working set (200k keys x 40 B cache entries) is
   8x the 1 MB cache, so most gets go past it. *)
let mixed_uniform ~seed (sz : size) =
  let rng = Rng.create ~seed in
  let next () =
    let key = Keyspace.key_of_index (Rng.int rng sz.preload) in
    if Rng.bool rng then Types.Get key else Types.Put (key, vlen)
  in
  closed_loop ~seed sz ~scale:Stores.default ~cache:(1 lsl 20)
    ~threads:8 ~ordered:false ~tails:(99.9, 99.9) next

(* YCSB-E's scan shape (scrambled-zipf start, length 1-100), every fourth
   op a scan and the rest inserts of fresh keys: inserts cost the host
   about 1/5000 of a scan, so they add samples for a put tail almost for
   free.  Each hundred scans take the lengths 1-100 once, in a seeded
   order: the lengths stay uniform, while the total length, which sets
   the simulated time, no longer varies with the seed.  Four shards:
   every scan snapshots each shard's MemTable and ABI whole, so its host
   cost grows with the shard count. *)
let scan ~seed (sz : size) =
  let rng = Rng.create ~seed in
  let zipf = Workload.Zipf.create ~n:sz.preload () in
  let fresh = ref (tail_base + (1 lsl 31) + Rng.int rng (1 lsl 30)) in
  let lengths = Array.init 100 (fun i -> i + 1) and used = ref 100 in
  let length () =
    if !used = 100 then begin
      for i = 99 downto 1 do
        let j = Rng.int rng (i + 1) in
        let l = lengths.(i) in
        lengths.(i) <- lengths.(j);
        lengths.(j) <- l
      done;
      used := 0
    end;
    incr used;
    lengths.(!used - 1)
  in
  let i = ref 0 in
  let next () =
    incr i;
    if !i mod 4 = 0 then
      let ix = Workload.Zipf.scrambled zipf rng ~universe:sz.preload in
      Types.Scan (Keyspace.key_of_index ix, length ())
    else begin
      incr fresh;
      Types.Put (Keyspace.key_of_index !fresh, vlen)
    end
  in
  closed_loop ~seed sz ~scale:{ Stores.quick with Stores.shards = 4 }
    ~cache:0 ~threads:8 ~ordered:true ~tails:(99.0, 90.0) next

(* Unique-key puts into an empty store, then uniform gets of the loaded
   keys (the paper's Table 4 sequence).  The seed picks the key range. *)
let load ~seed (sz : size) =
  let t0 = Probe.now_ns () in
  let chk, store = Checked.wrap (chameleon Stores.default) in
  let rng = Rng.create ~seed in
  let base = Rng.int rng (1 lsl 39) in
  let key i = Keyspace.key_of_index (base + i) in
  let i = ref 0 in
  let next_put () =
    let k = key !i in
    incr i;
    Types.Put (k, vlen)
  in
  let next_get () = Types.Get (key (Rng.int rng sz.ops)) in
  let setup_s = Probe.seconds_since t0 in
  let (puts, gets), ph =
    measure ~name:"harness.run_ops" [ chk ] (fun () ->
        let puts = run_ops ~store ~threads:4 ~start_at:0.0 ~ops:sz.ops next_put in
        let gets =
          run_ops ~store ~threads:4
            ~start_at:(Stores.settled_cursor ~store puts) ~ops:sz.sweep next_get
        in
        (puts, gets))
  in
  let rss = Probe.peak_rss_mb () in
  let ops = puts.Runner.ops + gets.Runner.ops in
  let sim =
    sim_sample [ chk ] ~ops ~sim_ns:(Runner.sim_ns puts +. Runner.sim_ns gets)
      ~read:(gets.Runner.get_latency, 99.0) ~write:(puts.Runner.put_latency, 99.0)
  in
  let restart =
    restart_check ~seed sz chk store ~at:(Stores.settled_cursor ~store gets)
  in
  finish ~setup_s ~ph ~ops ~rss ~sim ~restart [ chk ]

(* {1 Open-loop service} *)

type rung = {
  rate : float;
  get_h : Histogram.t;
  backlog_ns : float;  (* from the last arrival to the last completion *)
  requests : int;
  rung_host_s : float;
  rung_failed : int;
  rung_rss : float;
  rung_errors : string list;
  reference : result option;
}

let service ~seed (sz : size) =
  let t0 = Probe.now_ns () in
  let workers = 8 and conns = 8 in
  let chk, store = Checked.wrap ~op_per_call:true (chameleon Stores.default) in
  let load =
    Stores.load_unique ~store ~threads:workers ~start_at:0.0 ~n:sz.preload ~vlen
  in
  let start_at = Stores.settled_cursor ~store load in
  let reqgen =
    traced_gen (Loadgen.mixed_reqgen ~n_keys:sz.preload ~get_frac:0.9 ~vlen)
  in
  let schedules =
    List.mapi
      (fun i rate ->
        let t = Probe.now_ns () in
        let arr =
          Probe.span ~phase:true "workload.open_loop" (fun () ->
              Loadgen.open_loop ~seed:(seed + i) ~conns
                ~process:(Loadgen.Poisson { rate_mops = rate })
                ~reqgen
                ~duration_ns:(float_of_int sz.ops /. rate *. 1000.0)
                ~start_at ())
        in
        (rate, arr, Probe.seconds_since t))
      rates
  in
  let setup_s = Probe.seconds_since t0 in
  let run_rung (rate, arrivals, gen_s) () =
    let st, ph =
      measure ~name:"service.run" [ chk ] (fun () ->
          Server.run ~store ~workers ~start_at ~arrivals ())
    in
    let n = Array.length arrivals in
    let backlog_ns = st.Server.end_ns -. arrivals.(n - 1).Server.at in
    let failed = st.Server.shed + st.Server.corrupt in
    let rss = Probe.peak_rss_mb () in
    let reference =
      if rate <> reference_rate then None
      else begin
        let sim =
          sim_sample [ chk ] ~ops:n ~sim_ns:0.0
            ~read:(st.Server.get_service, 99.0) ~write:(st.Server.put_service, 99.0)
        in
        let restart =
          restart_check ~seed sz chk store
            ~at:(Float.max st.Server.end_ns (Device.quiesce_at (Store_intf.device store)))
        in
        Some
          (finish ~setup_s ~ph ~ops:n ~rss ~sim ~restart ~failed
             ~extra:
               [ ("service.max_queue_depth", float_of_int st.Server.max_depth);
                 ("workload.loadgen_host_ns_per_req", gen_s *. 1e9 /. float_of_int n) ]
             [ chk ])
      end
    in
    { rate; get_h = st.Server.get_service; backlog_ns; requests = n;
      rung_host_s = ph.host_s; rung_failed = failed + chk.Checked.errors;
      rung_rss = rss; rung_errors = List.rev chk.Checked.messages; reference }
  in
  (* every rung starts from the same preloaded state *)
  let rungs =
    List.map
      (fun s ->
        match Child.run (run_rung s) with
        | Ok r -> r
        | Error e -> failwith ("service rung: " ^ e))
      schedules
  in
  let reference =
    match List.find_map (fun r -> r.reference) rungs with
    | Some r -> r
    | None -> failwith "service: no reference rung"
  in
  let others = List.filter (fun r -> r.reference = None) rungs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 others in
  { reference with
    host_s = List.fold_left (fun a r -> a +. r.rung_host_s) 0.0 rungs;
    host_ops = List.fold_left (fun a r -> a + r.requests) 0 rungs;
    rss_mb = List.fold_left (fun a r -> Float.max a r.rung_rss) (Probe.peak_rss_mb ()) rungs;
    sim =
      { reference.sim with
        rungs = List.map (fun r -> (r.rate, r.get_h, r.backlog_ns)) rungs };
    attempted = reference.attempted + sum (fun r -> r.requests);
    failed = reference.failed + sum (fun r -> r.rung_failed);
    errors = reference.errors @ List.concat_map (fun r -> r.rung_errors) others }

(* {1 Cluster} *)

let cluster ~seed (sz : size) =
  let t0 = Probe.now_ns () in
  let n = 4 in
  let chks =
    Array.init n (fun i ->
        Checked.wrap
          ((Stores.chameleon ~name:(Printf.sprintf "node%d" i) Stores.default)
             .Stores.make ()))
  in
  let nodes = Array.mapi (fun i (_, store) -> Cluster.Node.create ~id:i store) chks in
  let ring =
    Cluster.Ring.create ~vshards:64 ~replicas:2 ~nodes:(List.init n Fun.id) ()
  in
  let router =
    Cluster.Router.create ~netem:(Fault.Netem.create ~seed ()) ~write_quorum:2
      ~read_quorum:1 ring nodes
  in
  let orc = Run.oracle () in
  let start = Run.preload router orc ~n_keys:sz.preload ~vlen in
  let closed =
    Loadgen.closed_loop ~seed ~conns:8 ~reqs_per_conn:(sz.ops / 8)
      ~reqgen:
        (traced_gen (Loadgen.mixed_reqgen ~n_keys:sz.preload ~get_frac:0.9 ~vlen))
      ()
  in
  let setup_s = Probe.seconds_since t0 in
  let chk_list = Array.to_list (Array.map fst chks) in
  let r, ph =
    measure ~name:"cluster.run" chk_list (fun () ->
        Run.run ~start_at:start ~closed ~events:[] router orc)
  in
  let rss = Probe.peak_rss_mb () in
  Cluster.Router.set_netem router None;
  let checked, mismatches = Run.divergence router orc in
  let audit_errors =
    if checked = 0 then [ "divergence audit checked nothing" ]
    else
      List.map
        (fun m ->
          Printf.sprintf "divergence: key %Lx on node %d: expected %s, got %s"
            m.Run.mm_key m.Run.mm_node m.Run.mm_expected m.Run.mm_got)
        mismatches
  in
  let ops = r.Run.r_ops in
  let sim =
    sim_sample chk_list ~ops ~sim_ns:(r.Run.r_end_ns -. start)
      ~read:(r.Run.r_get_h, 99.9) ~write:(r.Run.r_put_h, 99.9)
  in
  let chk0, store0 = chks.(0) in
  let restart =
    restart_check ~seed sz chk0 store0
      ~at:(Float.max r.Run.r_end_ns (Device.quiesce_at (Store_intf.device store0)))
  in
  finish ~setup_s ~ph ~ops ~rss ~sim ~restart
    ~failed:(r.Run.r_errs + r.Run.r_corrupt_conns) ~extra_errors:audit_errors
    chk_list

(* One round of [name]: runs in its own process (see [Child]).  With
   [trace], spans and attribution are on and the kept spans go to that
   file. *)
let round name ~seed ~smoke ~trace =
  Option.iter
    (fun file ->
      Probe.enable file;
      A.enable ())
    trace;
  let sz = size ~smoke name in
  match name with
  | "load" -> load ~seed sz
  | "read-zipf" -> read_zipf ~seed sz
  | "mixed-uniform" -> mixed_uniform ~seed sz
  | "scan" -> scan ~seed sz
  | "service" -> service ~seed sz
  | "cluster" -> cluster ~seed sz
  | _ -> invalid_arg ("unknown workload " ^ name)
