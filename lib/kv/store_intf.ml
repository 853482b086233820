(* First-class store API.  Each store design packs itself as a
   [(module STORE)]; the harness and the fault injector drive stores
   through the accessor functions below without knowing the design. *)

type read_stage =
  | Memtable
  | Cache
  | Abi
  | Dump
  | Upper
  | Last
  | Index
  | Miss
  | Corrupt

let stage_name = function
  | Memtable -> "memtable"
  | Cache -> "cache"
  | Abi -> "abi"
  | Dump -> "dump"
  | Upper -> "upper"
  | Last -> "last"
  | Index -> "index"
  | Miss -> "miss"
  | Corrupt -> "corrupt"

type health = Healthy | Scrubbing | Degraded

let health_name = function
  | Healthy -> "healthy"
  | Scrubbing -> "scrubbing"
  | Degraded -> "degraded"

type scrub_report = {
  sr_scanned_bytes : int;
  sr_scanned_entries : int;
  sr_detected : int;
  sr_repaired : int;
  sr_quarantined : int;
}

let empty_scrub_report =
  { sr_scanned_bytes = 0;
    sr_scanned_entries = 0;
    sr_detected = 0;
    sr_repaired = 0;
    sr_quarantined = 0 }

type read_result = {
  loc : Types.loc option;
  stage : read_stage;
  value : bytes option;
}

(* The read tail every index-over-log baseline shares: a tombstone is a
   miss; a hit pays one log read and must name its own key, else the
   answer is an explicit [Corrupt], never wrong data. *)
let verified_read vlog clock key = function
  | `Hit loc when not (Types.is_tombstone loc) -> (
    match Vlog.read vlog clock loc with
    | Ok (k, _) when Int64.equal k key ->
      { loc = Some loc; stage = Index; value = None }
    | Ok _ | Error `Corrupt -> { loc = None; stage = Corrupt; value = None })
  | `Hit _ | `Miss -> { loc = None; stage = Miss; value = None }
  | `Corrupt -> { loc = None; stage = Corrupt; value = None }

type value_spec = Sized of int | Payload of bytes

let spec_vlen = function
  | Sized vlen -> vlen
  | Payload v -> Bytes.length v

module type STORE = sig
  val name : string
  val write : Pmem_sim.Clock.t -> Types.key -> value_spec -> unit

  val write_batch : Pmem_sim.Clock.t -> (Types.key * value_spec) list -> unit
  (* Group commit: apply the puts in list order and make them durable
     with (at most) one persist fence for the whole group.  A crash in
     the middle of a batch may lose a suffix of the group but never an
     interior element — the log-append order is the list order.  Stores
     with no cheaper path use [sequential_write_batch]. *)

  val read : Pmem_sim.Clock.t -> Types.key -> read_result
  val delete : Pmem_sim.Clock.t -> Types.key -> unit

  val scan :
    Pmem_sim.Clock.t -> start:Types.key -> limit:int ->
    (Types.key * Types.loc) list
  (* Up to [limit] live entries with key >= [start], in ascending
     [Types.key_compare] order, newest version of each key, tombstones
     and quarantined keys suppressed.  A scan that hits a corrupt run
     fail-stops: it returns the prefix gathered so far and marks the
     shard degraded rather than fabricate results past the damage. *)

  val flush : Pmem_sim.Clock.t -> unit
  val maintenance : Pmem_sim.Clock.t -> unit
  val crash : unit -> unit
  val recover : Pmem_sim.Clock.t -> unit
  val check_invariants : unit -> (unit, string) result
  val scrub : Pmem_sim.Clock.t -> budget_bytes:int -> scrub_report
  val health : unit -> health
  val shard_degraded : Types.key -> bool
  val dram_footprint : unit -> float
  val pmem_footprint : unit -> float
  val device : Pmem_sim.Device.t
  val vlog : Vlog.t
  val fault_points : Fault_point.site list
end

(* Fallback [write_batch] for stores whose [write] already persists each
   op (or whose log batches internally): per-op writes in list order give
   the same prefix-loss crash semantics, just without fence amortization. *)
let sequential_write_batch write clock items =
  List.iter (fun (key, spec) -> write clock key spec) items

type store = (module STORE)

let name (module S : STORE) = S.name
let write (module S : STORE) clock key spec = S.write clock key spec

let write_batch (module S : STORE) clock items =
  match items with
  | [] -> ()
  | [ (key, spec) ] -> S.write clock key spec
  | _ -> S.write_batch clock items
let read (module S : STORE) clock key = S.read clock key
let delete (module S : STORE) clock key = S.delete clock key
let scan (module S : STORE) clock ~start ~limit = S.scan clock ~start ~limit

let scan_fold (module S : STORE) clock ~start ~limit ~init f =
  List.fold_left
    (fun acc (k, loc) -> f acc k loc)
    init
    (S.scan clock ~start ~limit)
let flush (module S : STORE) clock = S.flush clock
let maintenance (module S : STORE) clock = S.maintenance clock
let crash (module S : STORE) = S.crash ()
let recover (module S : STORE) clock = S.recover clock
let check_invariants (module S : STORE) = S.check_invariants ()
let scrub (module S : STORE) clock ~budget_bytes = S.scrub clock ~budget_bytes
let health (module S : STORE) = S.health ()
let shard_degraded (module S : STORE) key = S.shard_degraded key
let dram_footprint (module S : STORE) = S.dram_footprint ()
let pmem_footprint (module S : STORE) = S.pmem_footprint ()
let device (module S : STORE) = S.device
let vlog (module S : STORE) = S.vlog
let fault_points (module S : STORE) = S.fault_points

let apply (module S : STORE) clock (op : Types.op) =
  match op with
  | Types.Put (k, vlen) -> S.write clock k (Sized vlen)
  | Types.Get k -> ignore (S.read clock k)
  | Types.Delete k -> S.delete clock k
  | Types.Read_modify_write (k, vlen) ->
    ignore (S.read clock k);
    S.write clock k (Sized vlen)
  | Types.Scan (k, limit) -> ignore (S.scan clock ~start:k ~limit)
