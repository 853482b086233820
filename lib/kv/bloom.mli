(** Bloom filters, as used by the Pmem-LSM-F baseline (and by the leveled
    NoveLSM / MatrixKV model).

    The filter itself lives in DRAM; what matters to the simulation is the
    CPU cost: {!add} charges the construction cost the paper identifies as
    Pmem-LSM-F's put bottleneck, and {!mem} charges the per-filter check cost
    that dominates read latency on Optane (Challenge 2 / Fig. 2). *)

type t

val create : expected:int -> bits_per_key:int -> t
(** A filter sized for [expected] keys at [bits_per_key] (k is derived as
    [max 1 (round (0.69 * bits_per_key))]). *)

val add : t -> Pmem_sim.Clock.t -> Types.key -> unit

val mem : ?level:int -> t -> Pmem_sim.Clock.t -> Types.key -> bool
(** May return false positives; never false negatives.  Always counted
    against the global [bloom.probes] / [bloom.negatives]; with [?level],
    additionally against [bloom.probes.L<n>] / [bloom.negatives.L<n>], so
    experiments can report per-level filter traffic. *)

val false_positive : level:int -> unit
(** Count a filter that said "maybe" for a key its table did not hold,
    against [bloom.false_positives] and [bloom.false_positives.L<level>]. *)

val add_silent : t -> Types.key -> unit
(** Insert without charging time (used when rebuilding in tests). *)

val mem_silent : t -> Types.key -> bool

val footprint_bytes : t -> float
val nkeys : t -> int
