(** First-class store API.

    Each store design (ChameleonDB and the five baselines) packs itself as
    a [(module STORE)] value; the harness, checker and fault injector drive
    stores through the accessors below without knowing the design.  All
    operations charge simulated time to the supplied clock.

    The op surface is deliberately narrow: one {!STORE.read} that returns
    everything a get can know (location, answering structure, payload when
    available), one {!STORE.write} that takes a {!value_spec} (a size for
    accounting-only runs, real bytes for materialized ones), and one
    {!STORE.scan} for ordered ranges.  The old [get]/[put] sprawl — and
    the thin wrappers that briefly survived it — is gone: every caller
    drives [read]/[write]/[scan] directly. *)

type read_stage =
  | Memtable  (** DRAM MemTable *)
  | Cache     (** DRAM read cache (positive or negative hit) *)
  | Abi       (** asynchronous DRAM index *)
  | Dump      (** GPM-dumped un-merged Pmem table *)
  | Upper     (** upper Pmem levels (degraded window) *)
  | Last      (** last-level Pmem table *)
  | Index     (** design-specific index (baselines report this) *)
  | Miss
  | Corrupt
      (** the newest version of the key failed integrity verification (or
          the key is quarantined): an explicit error, never wrong data and
          never a silent miss *)

val stage_name : read_stage -> string

type health =
  | Healthy
  | Scrubbing  (** a scrub pass is underway; service continues *)
  | Degraded
      (** unrepaired corruption detected; writes to this shard should be
          throttled until a scrub pass covers it *)

val health_name : health -> string

type scrub_report = {
  sr_scanned_bytes : int;   (** artifact bytes verified this pass *)
  sr_scanned_entries : int; (** records/runs verified *)
  sr_detected : int;        (** verification failures found *)
  sr_repaired : int;        (** rebuilt from redundant state (vlog) *)
  sr_quarantined : int;     (** keys marked {!Types.corrupt_marker} *)
}

val empty_scrub_report : scrub_report
(** All-zero report — what a store without a scrubber returns. *)

type read_result = {
  loc : Types.loc option;  (** [None] for absent or deleted keys *)
  stage : read_stage;      (** which structure answered *)
  value : bytes option;
      (** the payload, when the store materializes values (or the cache
          holds them); [None] in accounting-only mode *)
}

val verified_read :
  Vlog.t -> Pmem_sim.Clock.t -> Types.key ->
  [ `Hit of Types.loc | `Miss | `Corrupt ] -> read_result
(** The read tail of a store whose index points into the log: an index
    [`Hit] on a tombstone is a {!Miss}; any other hit pays one
    {!Vlog.read} and answers {!Index} if the record holds [key], else
    {!Corrupt}.  An index [`Corrupt] (a damaged run block) stays
    {!Corrupt}. *)

type value_spec =
  | Sized of int     (** accounting-only payload of [vlen] bytes *)
  | Payload of bytes (** real payload (retained in materialized mode) *)

val spec_vlen : value_spec -> int
(** The payload size a spec charges for. *)

module type STORE = sig
  val name : string

  val write : Pmem_sim.Clock.t -> Types.key -> value_spec -> unit
  (** Append the value to the storage log and index it.  May trigger
      flushes and compactions on background clocks. *)

  val write_batch : Pmem_sim.Clock.t -> (Types.key * value_spec) list -> unit
  (** Group commit: apply the puts in list order, made durable with (at
      most) one persist fence for the whole group.  Crash semantics are
      prefix loss — a power failure mid-batch may drop a suffix of the
      group, never an interior element, because the log-append order is
      the list order.  Stores whose per-op [write] already persists (or
      whose log batches internally) use {!sequential_write_batch}. *)

  val read : Pmem_sim.Clock.t -> Types.key -> read_result
  (** Index (or cache) lookup plus a log read of the value on a hit, as a
      real get must. *)

  val delete : Pmem_sim.Clock.t -> Types.key -> unit

  val scan :
    Pmem_sim.Clock.t -> start:Types.key -> limit:int ->
    (Types.key * Types.loc) list
  (** Up to [limit] live entries with key [>= start], in ascending
      {!Types.key_compare} order: newest version of each key, tombstones
      and quarantined keys suppressed.  A scan that reaches a corrupt run
      fail-stops — it returns the prefix gathered before the damage and
      degrades the shard — rather than fabricate results. *)

  val flush : Pmem_sim.Clock.t -> unit
  (** Push buffered state (log batch, MemTables) to the device. *)

  val maintenance : Pmem_sim.Clock.t -> unit
  (** One background-maintenance pass (value-log GC where the design has
      it; a no-op otherwise).  The fault harness calls it to reach the
      [Gc] crash site. *)

  val crash : unit -> unit
  (** Simulate power failure: volatile state is lost; unpersisted device
      stores revert (or tear, see {!Pmem_sim.Device.set_tear}). *)

  val recover : Pmem_sim.Clock.t -> unit
  (** Rebuild to service-ready; the clock advance is the restart time.
      Must be restartable: if interrupted by a crash, a following
      [crash]+[recover] must converge to the same service-ready state. *)

  val check_invariants : unit -> (unit, string) result
  (** Structural self-check; the crash checker runs it after recovery. *)

  val scrub : Pmem_sim.Clock.t -> budget_bytes:int -> scrub_report
  (** One background integrity pass over up to [budget_bytes] of durable
      artifacts: verify record/run checksums, repair what redundant state
      allows, quarantine what it does not.  Stores without an integrity
      subsystem return {!empty_scrub_report} (detection still happens on
      their read paths via the shared log/table verification). *)

  val health : unit -> health
  (** Worst health across the store's shards. *)

  val shard_degraded : Types.key -> bool
  (** Is the shard owning [key] currently {!Degraded}?  Admission control
      uses this to throttle writes into damaged shards.  [false] for
      designs without shard health. *)

  val dram_footprint : unit -> float  (** resident DRAM bytes *)

  val pmem_footprint : unit -> float  (** allocated device bytes *)

  val device : Pmem_sim.Device.t
  val vlog : Vlog.t

  val fault_points : Fault_point.site list
  (** Persistence sites this design actually executes; the crash sweep
      enumerates exactly these. *)
end

val sequential_write_batch :
  (Pmem_sim.Clock.t -> Types.key -> value_spec -> unit) ->
  Pmem_sim.Clock.t -> (Types.key * value_spec) list -> unit
(** Fallback {!STORE.write_batch} built from a per-op write function:
    same prefix-loss crash semantics, no fence amortization. *)

type store = (module STORE)

(** {1 Accessors} — call these rather than unpacking at every site. *)

val name : store -> string
val write : store -> Pmem_sim.Clock.t -> Types.key -> value_spec -> unit

(** {!STORE.write_batch} with the trivial cases short-circuited: an empty
    group is a no-op and a singleton goes through plain [write]. *)
val write_batch :
  store -> Pmem_sim.Clock.t -> (Types.key * value_spec) list -> unit
val read : store -> Pmem_sim.Clock.t -> Types.key -> read_result
val delete : store -> Pmem_sim.Clock.t -> Types.key -> unit

val scan :
  store -> Pmem_sim.Clock.t -> start:Types.key -> limit:int ->
  (Types.key * Types.loc) list

val scan_fold :
  store -> Pmem_sim.Clock.t -> start:Types.key -> limit:int ->
  init:'a -> ('a -> Types.key -> Types.loc -> 'a) -> 'a
(** Fold form of {!scan} over the same ordered, shadow-resolved entries. *)

val flush : store -> Pmem_sim.Clock.t -> unit
val maintenance : store -> Pmem_sim.Clock.t -> unit
val crash : store -> unit
val recover : store -> Pmem_sim.Clock.t -> unit
val check_invariants : store -> (unit, string) result
val scrub : store -> Pmem_sim.Clock.t -> budget_bytes:int -> scrub_report
val health : store -> health
val shard_degraded : store -> Types.key -> bool
val dram_footprint : store -> float
val pmem_footprint : store -> float
val device : store -> Pmem_sim.Device.t
val vlog : store -> Vlog.t
val fault_points : store -> Fault_point.site list

val apply : store -> Pmem_sim.Clock.t -> Types.op -> unit
(** Run one workload operation against a store (RMW = read then write;
    Scan discards its results after charging their cost). *)
