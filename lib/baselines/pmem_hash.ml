module Device = Pmem_sim.Device
module Vlog = Kv_common.Vlog
module Cceh = Kv_common.Cceh

type t = {
  dev : Device.t;
  vlog : Vlog.t;
  index : Cceh.t;
}

let create () =
  let dev = Device.create Pmem_sim.Cost_model.optane in
  { dev; vlog = Vlog.create ~fenced:true dev; index = Cceh.create dev }

let put t clock key ~vlen =
  let loc = Vlog.append t.vlog clock key ~vlen in
  Cceh.put t.index clock key loc

let delete t clock key =
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  ignore (Cceh.delete t.index clock key)

(* Honest crash semantics: both the log (fenced, so every completed append
   is already durable) and the CCEH table (each slot write is individually
   persisted) live on the device; a crash loses only in-flight stores.
   The only volatile state is the CCEH directory, a DRAM cache of
   per-segment metadata. *)
let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog

(* Recovery replays the persisted table: one metadata read per segment
   rebuilds the directory; slot data needs no replay.  Idempotent — the
   rebuild reads only persisted state. *)
let recover t clock =
  Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery @@ fun () ->
  Cceh.recover t.index clock

module Scan = Kv_common.Scan

(* CCEH keeps nothing in key order: a scan bulk-reads every distinct
   segment, sorts the survivors, and serves the range — the honest cost a
   pmem hash index pays for ordered access. *)
let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Pmem_hash.scan: negative limit";
  let snap = Scan.of_iter clock ~start (fun f -> Cceh.iter t.index clock f) in
  let entries, _status = Scan.take (Scan.live snap) ~limit in
  entries

let check_invariants t =
  if Cceh.count t.index < 0 then Error "CCEH count negative"
  else if Cceh.segments t.index < 1 then Error "CCEH has no segments"
  else Ok ()

let store t : Kv_common.Store_intf.store =
  (module struct
    let name = "Pmem-Hash"
    let write clock key spec =
      put t clock key ~vlen:(Kv_common.Store_intf.spec_vlen spec)

    let write_batch = Kv_common.Store_intf.sequential_write_batch write

    let read clock key =
      Kv_common.Store_intf.verified_read t.vlog clock key
        (match Cceh.get t.index clock key with
        | Some loc -> `Hit loc
        | None -> `Miss)

    let delete clock key = delete t clock key
    let scan clock ~start ~limit = scan t clock ~start ~limit
    let flush clock = Vlog.flush t.vlog clock
    let maintenance _ = ()
    let scrub _ ~budget_bytes:_ = Kv_common.Store_intf.empty_scrub_report
    let health () = Kv_common.Store_intf.Healthy
    let shard_degraded _ = false
    let crash () = crash t
    let recover clock = recover t clock
    let check_invariants () = check_invariants t

    let dram_footprint () =
      Cceh.dram_footprint t.index +. Vlog.dram_footprint t.vlog

    let pmem_footprint () = Device.used_bytes t.dev
    let device = t.dev
    let vlog = t.vlog
    let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
  end)

