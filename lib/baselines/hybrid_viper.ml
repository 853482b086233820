(* Hybrid-Viper: a Viper-style hybrid DRAM/PMem store (Benson et al.,
   VLDB 2021).  A volatile DRAM hash index maps keys to records in a
   CRC32C-checked PMem value log; every put is durable when it is acked
   — Viper persists each record with ntstores plus a fence — so unlike
   Dram-Hash there is no open-batch window in which acked writes can be
   lost.  Viper's per-client write buffers are realized one layer up:
   the service's group commit and the client auto-batcher hand the store
   whole groups, and [write_batch] appends the group and pays a single
   persist fence for all of it.

   The price is the other side of ChameleonDB's instant-restart
   tradeoff: the index is DRAM-only, so recovery must replay the entire
   persisted log before serving; the `batch` experiment reports the gap
   against ChameleonDB's persisted last level. *)

module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog
module Robinhood = Kv_common.Robinhood

let c_group_commits = Obs.Counters.counter "hybrid_viper.group_commits"
let c_group_ops = Obs.Counters.counter "hybrid_viper.group_ops"

type t = {
  dev : Device.t;
  vlog : Vlog.t;
  mutable index : Robinhood.t;
}

(* The log's 64 KB staging buffer: a group larger than this still
   persists with one fence per 64 KB of data, which is the honest device
   behaviour for a bounded per-client buffer. *)
let create () =
  let dev = Device.create Pmem_sim.Cost_model.optane in
  { dev;
    vlog = Vlog.create ~batch_bytes:(64 * 1024) dev;
    index = Robinhood.create () }

(* One put = one record append + its own persist fence (Viper's
   ntstore+fence discipline).  The ack implies durability. *)
let put t clock key ~vlen =
  let loc = Vlog.append t.vlog clock key ~vlen in
  Vlog.flush t.vlog clock;
  Robinhood.put t.index clock key loc

(* Group commit: stage the whole group in the write buffer, then one
   fence covers every record.  Log-append order is list order, so a
   crash mid-flush can only lose a suffix of the group. *)
let put_batch t clock items =
  Obs.Counters.incr c_group_commits;
  List.iter
    (fun (key, spec) ->
      Obs.Counters.incr c_group_ops;
      let vlen = Kv_common.Store_intf.spec_vlen spec in
      let loc = Vlog.append t.vlog clock key ~vlen in
      Robinhood.put t.index clock key loc)
    items;
  let attr = Obs.Attribution.enabled () in
  let t0 = if attr then Clock.now clock else 0.0 in
  Vlog.flush t.vlog clock;
  if attr then Obs.Attribution.add Put_group_commit (Clock.now clock -. t0)

let delete t clock key =
  let _loc = Vlog.append t.vlog clock key ~vlen:(-1) in
  Vlog.flush t.vlog clock;
  ignore (Robinhood.delete t.index clock key)

module Scan = Kv_common.Scan

(* No order in a hash index: scans snapshot and sort, as in Dram-Hash. *)
let scan t clock ~start ~limit =
  if limit < 0 then invalid_arg "Hybrid_viper.scan: negative limit";
  let snap = Scan.of_iter clock ~start (fun f -> Robinhood.iter t.index f) in
  let entries, _status = Scan.take (Scan.live snap) ~limit in
  entries

(* Power failure drops the DRAM index entirely; the persisted log prefix
   (every acked op, since each ack followed a fence) is all that
   survives. *)
let crash t =
  Device.crash t.dev;
  Vlog.crash t.vlog;
  t.index <- Robinhood.create ()

(* The forfeited instant restart: recovery is a full CRC-verified scan
   of the persisted log, newest record wins.  Restartable — a crash
   during replay drops the partial index and the next recovery rescans
   from the head. *)
let recover t clock =
  Kv_common.Fault_point.with_site Kv_common.Fault_point.Recovery @@ fun () ->
  Vlog.iter_range t.vlog clock ~lo:(Vlog.head t.vlog)
    ~hi:(Vlog.persisted t.vlog) (fun loc key vlen ->
      if vlen < 0 then ignore (Robinhood.delete t.index clock key)
      else Robinhood.put t.index clock key loc)

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
    let name = "Hybrid-Viper"
    let write clock key spec =
      put t clock key ~vlen:(Kv_common.Store_intf.spec_vlen spec)

    let write_batch clock items = put_batch t clock items

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
