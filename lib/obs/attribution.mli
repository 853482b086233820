(** Per-operation stage attribution.

    Where does a get or put spend its simulated time?  Instrumentation on
    the data path measures the clock delta of each stage and accumulates it
    here; the harness snapshots the accumulators around a run and prints a
    per-stage breakdown whose sums reconcile with the end-to-end mean
    latency.

    Get stages: DRAM read-cache probe/serve/fill, MemTable probe, ABI
    probe, persistent-level probes (dumped / upper / last tables),
    value-log read.  Put stages: log batch copy,
    index (MemTable) insert, and the two stall flavours — waiting behind a
    background flush vs. behind a compaction.  Service stages (the [`Svc]
    class) attribute a request's life inside the serving pipeline: frame
    decode, scheduler-queue wait, store execution, reply encode — their sum
    is the coordinated-omission-free service latency.  The [`Scan]
    class covers the ordered-range path: per-shard stream setup (snapshot
    sorts, fence searches) plus the k-way merge pull, charged as one
    [Scan_stream] stage.  The [`Rpc] class attributes the defensive
    cluster RPC path: retry backoff waits, hedge delays, and deadline
    budget burned by attempts that never acked.

    Like {!Trace}, recording is a no-op unless {!enable}d. *)

type stage =
  | Get_cache
  | Get_memtable
  | Get_abi
  | Get_level_probe
  | Get_log_read
  | Put_batch_copy
  | Put_index_insert
  | Put_flush_stall
  | Put_compaction_stall
  | Put_group_commit
      (** the persist fence a [write_batch] group commit pays once for the
          whole group (amortized across the group's puts) *)
  | Svc_decode
  | Svc_queue
  | Svc_execute
  | Svc_encode
  | Scan_stream
  | Rpc_backoff
      (** time a routed op spends waiting out retry backoff windows *)
  | Rpc_hedge
      (** hedge delay waited before duplicating a read to another replica *)
  | Rpc_timeout
      (** deadline budget burned by RPC attempts that never acked *)

val all : stage list
val name : stage -> string
val op_of : stage -> [ `Get | `Put | `Svc | `Scan | `Rpc ]

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero the accumulators. *)

val add : stage -> float -> unit
(** Accumulate [ns] against a stage.  Callers are expected to guard with
    {!enabled} so the disabled fast path never computes the delta. *)

type snapshot

val snapshot : unit -> snapshot
val diff : after:snapshot -> before:snapshot -> snapshot
val stage_ns : snapshot -> stage -> float
val total : op:[ `Get | `Put | `Svc | `Scan | `Rpc ] -> snapshot -> float
(** Sum of the stage times belonging to one operation kind. *)
