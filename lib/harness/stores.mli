(** Store zoo and experiment scaling.

    The paper loads one billion keys into stores with 16384 shards; we run
    the same ratios at reduced scale (see DESIGN.md).  [scale] centralizes
    the knobs so every experiment sizes itself consistently, and [--quick]
    maps to {!quick}. *)

type scale = {
  shards : int;
  memtable_slots : int;
  load_keys : int;     (** unique keys loaded before read-side experiments *)
  sweep_ops : int;     (** operations per measurement sweep *)
  threads : int list;  (** thread counts for throughput sweeps *)
  vlen : int;          (** value size (8 B in the paper's main runs) *)
}

val default : scale
val quick : scale

val chameleon_cfg : ?seed:int -> scale -> Chameleondb.Config.t
(** ChameleonDB (and Pmem-LSM) configuration at this scale.  [seed] is an
    experiment seed (default 1): the config's own seed becomes
    [Config.default.seed + seed - 1], so seed 1 keeps the default. *)

type spec = {
  name : string;
  make : unit -> Kv_common.Store_intf.store;
      (** fresh store on a fresh simulated device *)
}

val paper : ?cache_bytes:int -> ?seed:int -> scale -> spec list
(** The six stores the paper evaluates, in its column order: ChameleonDB,
    Pmem-LSM-PinK, Pmem-LSM-NF, Pmem-LSM-F, Pmem-Hash, Dram-Hash.  Paper
    figures and tables iterate over this list, so extension stores never
    widen them.  [cache_bytes] (default 0 = disabled) sizes ChameleonDB's
    DRAM read cache; the baselines have none, as in the paper.  [seed] as
    in {!chameleon_cfg}. *)

val all : ?cache_bytes:int -> ?seed:int -> scale -> spec list
(** The whole store zoo: {!paper} followed by the extension store
    Hybrid-Viper. *)

val chameleon :
  ?f:(Chameleondb.Config.t -> Chameleondb.Config.t) -> ?name:string ->
  ?seed:int -> scale -> spec
(** ChameleonDB with a config tweak (modes, compaction scheme, ablations);
    [name] labels the variant in reports and the crash sweep. *)

val find : ?cache_bytes:int -> ?seed:int -> scale -> string -> spec

val load_group : int
(** Group size bulk loads commit with (32). *)

val load_unique :
  store:Kv_common.Store_intf.store -> threads:int -> start_at:float ->
  n:int -> vlen:int -> Runner.result
(** Load [n] unique keys (indices [0, n)) through
    {!Runner.run_write_batches} groups of {!load_group}, then
    flush.  Stores with a real group commit pay one persist fence per
    group; the rest take the sequential [write_batch] fallback, so the
    op stream is identical. *)

val settled_cursor :
  store:Kv_common.Store_intf.store -> Runner.result -> float
(** Time to start the next measurement phase: past the run's end {e and}
    past any background device backlog it left behind. *)

val sustained_mops :
  store:Kv_common.Store_intf.store -> Runner.result -> float
(** Throughput over the settled duration — the honest number for write
    workloads, where foreground clocks can finish while compaction backlog
    is still queued on the device. *)

val uniform_get_gen :
  seed:int -> universe:int -> unit -> Kv_common.Types.op
(** Shared generator of uniform random gets over loaded keys (use with
    {!Runner.run_ops}, which bounds the count). *)
