module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Robinhood = Kv_common.Robinhood

type t = {
  dev : Device.t;
  vlog : Vlog.t;
  mutable index : Robinhood.t;
}

let create () =
  let dev = Device.create Pmem_sim.Cost_model.optane in
  { dev; vlog = Vlog.create dev; index = Robinhood.create () }

let put t clock key ~vlen =
  let loc = Vlog.append t.vlog clock key ~vlen in
  Robinhood.put t.index clock key loc

let delete t clock key =
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  ignore (Robinhood.delete t.index clock key)

module Scan = Kv_common.Scan

(* A hash index has no order: a scan pays a full snapshot of the index —
   walk every entry, sort, then serve the range.  Tombstones survive into
   the stream and are dropped by [Scan.live]. *)
let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Dram_hash.scan: negative limit";
  let snap = Scan.of_iter clock ~start (fun f -> Robinhood.iter t.index f) in
  let entries, _status = Scan.take (Scan.live snap) ~limit in
  entries

(* Honest crash semantics: the whole index is DRAM, so a power failure
   loses every entry — by design.  What survives is exactly the persisted
   prefix of the log. *)
let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog;
  t.index <- Robinhood.create ()

(* Recovery is a full scan of the persisted log — the design's whole
   restart cost.  Replaying into a partially rebuilt index is restartable:
   a crash during recovery drops the index again and the next recovery
   rescans from the head. *)
let recover t clock =
  Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery @@ fun () ->
  Vlog.iter_range t.vlog clock ~lo:(Vlog.head t.vlog)
    ~hi:(Vlog.persisted t.vlog) (fun loc key vlen ->
      if vlen < 0 then ignore (Robinhood.delete t.index clock key)
      else Robinhood.put t.index clock key loc)

(* Every live index entry must point at a log record for its own key. *)
let check_invariants t =
  let bad = ref None in
  Robinhood.iter t.index (fun key loc ->
      if !bad = None && not (Types.is_tombstone loc) then
        if
          loc < Vlog.head t.vlog
          || loc >= Vlog.length t.vlog
          || not (Int64.equal (Vlog.key_at t.vlog loc) key)
        then bad := Some key);
  match !bad with
  | Some k -> Error (Printf.sprintf "index entry for %Ld is dangling" k)
  | None -> Ok ()

let store t : Kv_common.Store_intf.store =
  (module struct
    let name = "Dram-Hash"
    let write clock key spec =
      put t clock key ~vlen:(Kv_common.Store_intf.spec_vlen spec)

    let write_batch = Kv_common.Store_intf.sequential_write_batch write

    let read clock key =
      Kv_common.Store_intf.verified_read t.vlog clock key
        (match Robinhood.get t.index clock key with
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
      Robinhood.footprint_bytes t.index +. Vlog.dram_footprint t.vlog

    let pmem_footprint () = Device.used_bytes t.dev
    let device = t.dev
    let vlog = t.vlog
    let fault_points = Kv_common.Fault_point.[ Foreground; Recovery ]
  end)

