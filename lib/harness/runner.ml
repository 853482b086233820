module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Stats = Pmem_sim.Stats
module Types = Kv_common.Types
module Store_intf = Kv_common.Store_intf
module Histogram = Metrics.Histogram

type result = {
  ops : int;
  seed : int option;
  start_ns : float;
  end_ns : float;
  latency : Histogram.t;
  get_latency : Histogram.t;
  put_latency : Histogram.t;
  scan_latency : Histogram.t;
  device_delta : Stats.t;
  attribution : Obs.Attribution.snapshot;
  counters : (string * float) list;
}

let sim_ns r = r.end_ns -. r.start_ns

let throughput_mops r =
  let ns = sim_ns r in
  if ns <= 0.0 then 0.0 else float_of_int r.ops /. ns *. 1000.0

let min_clock_thread clocks alive =
  let best = ref (-1) and best_t = ref infinity in
  Array.iteri
    (fun i c ->
      if alive.(i) && Clock.now c < !best_t then begin
        best := i;
        best_t := Clock.now c
      end)
    clocks;
  !best

(* The discrete-event loop behind [run] and [run_write_batches].  At every
   step the min-clock thread calls [step ~thread clock record], which
   issues that thread's next unit of work, reports each completed op's
   latency to [record], and returns [false] once the thread has nothing
   left to issue. *)
let drive ?seed ~store ~threads ~start_at step =
  let dev = Store_intf.device store in
  let before = Stats.copy (Device.stats dev) in
  let attr_before = Obs.Attribution.snapshot () in
  let counters_before = Obs.Counters.snapshot () in
  let prev_threads = Device.active_threads dev in
  Device.set_active_threads dev threads;
  let clocks = Array.init threads (fun _ -> Clock.create ~at:start_at ()) in
  let alive = Array.make threads true in
  let latency = Histogram.create () in
  let get_latency = Histogram.create () in
  let put_latency = Histogram.create () in
  let scan_latency = Histogram.create () in
  let ops = ref 0 in
  let record kind lat =
    Histogram.record latency lat;
    Histogram.record
      (match kind with
      | `Get -> get_latency
      | `Scan -> scan_latency
      | `Put -> put_latency)
      lat;
    incr ops
  in
  let nalive = ref threads in
  while !nalive > 0 do
    let i = min_clock_thread clocks alive in
    if not (step ~thread:i clocks.(i) record) then begin
      alive.(i) <- false;
      decr nalive
    end
  done;
  Device.set_active_threads dev prev_threads;
  let end_ns =
    Array.fold_left (fun acc c -> Float.max acc (Clock.now c)) start_at clocks
  in
  { ops = !ops;
    seed;
    start_ns = start_at;
    end_ns;
    latency;
    get_latency;
    put_latency;
    scan_latency;
    device_delta = Stats.diff ~after:(Device.stats dev) ~before;
    attribution =
      Obs.Attribution.diff ~after:(Obs.Attribution.snapshot ())
        ~before:attr_before;
    counters =
      Obs.Counters.diff_snapshots ~after:(Obs.Counters.snapshot ())
        ~before:counters_before }

let run ?seed ~store ~threads ~start_at ~gen () =
  drive ?seed ~store ~threads ~start_at (fun ~thread clock record ->
      match gen ~thread ~now:(Clock.now clock) with
      | None -> false
      | Some op ->
        if Obs.Trace.enabled () then Obs.Trace.set_tid thread;
        let t0 = Clock.now clock in
        Store_intf.apply store clock op;
        record
          (match op with
          | Types.Get _ -> `Get
          | Types.Scan _ -> `Scan
          | Types.Put _ | Types.Delete _ | Types.Read_modify_write _ -> `Put)
          (Clock.now clock -. t0);
        true)

let run_ops ?seed ~store ~threads ~start_at ~ops ~next () =
  let remaining = ref ops in
  let gen ~thread:_ ~now:_ =
    if !remaining <= 0 then None
    else begin
      decr remaining;
      Some (next ())
    end
  in
  run ?seed ~store ~threads ~start_at ~gen ()

(* Bulk writer: each thread step commits one [write_batch] group of up to
   [group] puts.  Per-op latency is the group's commit latency amortized
   over its members, so histograms stay per-op comparable with
   [run_ops]. *)
let run_write_batches ?seed ~store ~threads ~start_at ~ops ~group ~next () =
  if group <= 0 then invalid_arg "Runner.run_write_batches: group <= 0";
  let remaining = ref ops in
  drive ?seed ~store ~threads ~start_at (fun ~thread clock record ->
      !remaining > 0
      && begin
        let n = min group !remaining in
        remaining := !remaining - n;
        let items = List.init n (fun _ -> next ()) in
        if Obs.Trace.enabled () then Obs.Trace.set_tid thread;
        let t0 = Clock.now clock in
        Store_intf.write_batch store clock items;
        let per_op = (Clock.now clock -. t0) /. float_of_int n in
        for _ = 1 to n do
          record `Put per_op
        done;
        true
      end)

(* Per-stage latency attribution table.  For each op kind the instrumented
   stage means must reconcile with the measured end-to-end mean; whatever
   the stages did not cover is shown as "(other)". *)
let attribution_table ~name r =
  let tbl =
    Metrics.Table_fmt.create
      ~title:(Printf.sprintf "%s: per-stage latency attribution" name)
      ~columns:
        [ ("op", Metrics.Table_fmt.Left); ("stage", Metrics.Table_fmt.Left);
          ("mean/op", Metrics.Table_fmt.Right);
          ("share", Metrics.Table_fmt.Right) ]
  in
  let section (op : [ `Get | `Put | `Svc | `Scan | `Rpc ]) hist =
    let n = Histogram.count hist in
    if n > 0 then begin
      let nf = float_of_int n in
      let mean = Histogram.mean hist in
      let op_name =
        match op with
        | `Get -> "get"
        | `Put -> "put"
        | `Svc -> "svc"
        | `Scan -> "scan"
        | `Rpc -> "rpc"
      in
      let covered = ref 0.0 in
      List.iter
        (fun stage ->
          if Obs.Attribution.op_of stage = op then begin
            let per_op =
              Obs.Attribution.stage_ns r.attribution stage /. nf
            in
            covered := !covered +. per_op;
            let share =
              if mean > 0.0 then
                Printf.sprintf "%5.1f%%" (100.0 *. per_op /. mean)
              else "-"
            in
            Metrics.Table_fmt.add_row tbl
              [ op_name; Obs.Attribution.name stage;
                Metrics.Table_fmt.cell_ns per_op; share ]
          end)
        Obs.Attribution.all;
      let other = mean -. !covered in
      let share =
        if mean > 0.0 then Printf.sprintf "%5.1f%%" (100.0 *. other /. mean)
        else "-"
      in
      Metrics.Table_fmt.add_row tbl
        [ op_name; "(other)"; Metrics.Table_fmt.cell_ns other; share ];
      Metrics.Table_fmt.add_row tbl
        [ op_name; "= end-to-end mean"; Metrics.Table_fmt.cell_ns mean;
          "100.0%" ];
      Metrics.Table_fmt.add_rule tbl
    end
  in
  section `Get r.get_latency;
  section `Put r.put_latency;
  section `Scan r.scan_latency;
  Metrics.Table_fmt.render tbl

let summary ~name ?(user_bytes = 0.0) ?dram_bytes r =
  let dram_bytes = match dram_bytes with Some b -> b | None -> 0.0 in
  Metrics.Summary.make ~name ~ops:r.ops ~sim_ns:(sim_ns r) ~latency:r.latency
    ~pmem_write_bytes:r.device_delta.Stats.media_write_bytes
    ~pmem_read_bytes:r.device_delta.Stats.media_read_bytes ~user_bytes
    ~dram_bytes ()
