(** Immutable persistent hash table laid out on the simulated Pmem device.

    This is the paper's on-Pmem table format (a sub-level of an LSM level):
    a fixed array of 16 B slots (8 B key, 8 B location), filled by linear
    probing, written to the device as one large aligned write — which is why
    flushing/compacting tables "can fully utilize the write bandwidth of
    Optane Pmem" (Section 2.1).  Once built, a table is immutable; it is
    dropped as a whole after compaction. *)

type t

type probe =
  | Found of Types.loc
  | Absent
  | Corrupted
      (** a block the probe touched is poisoned or fails its checksum *)

val build :
  Pmem_sim.Device.t -> Pmem_sim.Clock.t -> slots:int ->
  (Types.key * Types.loc) list -> t
(** [build dev c ~slots entries] assembles the slot array in a DRAM staging
    buffer (charging hashing and copy costs), writes it to a fresh device
    allocation and persists it with a single large write.  Later bindings of
    the same key override earlier ones.  Raises [Invalid_argument] if
    [entries] exceed [slots]. *)

val build_sorted :
  Pmem_sim.Device.t -> Pmem_sim.Clock.t ->
  (Types.key * Types.loc) list -> t
(** Ordered variant of the run format used for the last level: the same
    dense 16 B-slot array, but slots hold the entries in ascending
    {!Types.key_compare} order (no probing, no holes) and a DRAM fence
    array records the first key of each write unit.  Charges
    [sort_per_key_ns] per entry plus the usual checksum/copy/write costs.
    Later bindings of the same key override earlier ones.  A point {!get}
    binary-searches the fences and fetches exactly one unit with one
    device read; {!iter} and {!cursor} stream in key order. *)

val dram_bytes : t -> int
(** DRAM resident bytes of the run's index: the fence array for sorted
    runs, 0 for hashed runs. *)

val count : t -> int
(** Live entries. *)

val tag : t -> int
val set_tag : t -> int -> unit
(** Client-managed recency tag: ChameleonDB orders a shard's tables by
    creation sequence to resolve key versions across levels and GPM dumps. *)

val byte_size : t -> int

val media_range : t -> int * int
(** [(off, len)] of the run on the device — the media-fault injection
    target for tests and the sweep. *)

val get : t -> Pmem_sim.Clock.t -> Types.key -> probe
(** Probe the persistent table.  On a hashed run the first probe is a
    random device read and linear-probe successors within the same 256 B
    unit are charged as adjacent accesses.  On a sorted run the fence
    search picks the one unit the key can live in, a single random device
    read fetches it, and its slots are searched in the CPU cache at
    [key_compare_ns] per compare.  Each block is checksum-verified on
    first touch (charged at [crc_ns_per_byte]); a failing block answers
    [Corrupted] rather than trusting its slots. *)

val intact : ?charge_read:bool -> t -> Pmem_sim.Clock.t -> bool
(** Verify the whole run: no poisoned media units and every per-unit block
    checksum matches the device bytes.  Always charges the streaming CRC
    pass; [charge_read] (default false) additionally charges the bulk
    device read — the scrubber sets it, while compaction piggybacks
    verification on the streaming read {!iter} already performs. *)

val iter : t -> Pmem_sim.Clock.t -> (Types.key -> Types.loc -> unit) -> unit
(** Stream the whole table from the device (one bulk read) and apply [f] to
    live slots — the read half of a compaction.  On a sorted run the order
    is ascending {!Types.key_compare}. *)

type cursor
(** Lazy ordered iterator over a {!build_sorted} run: units are bulk-read
    and checksum-verified one at a time as the cursor crosses into them, so
    a short scan touching one unit pays for one unit. *)

val cursor : t -> Pmem_sim.Clock.t -> start:Types.key -> cursor
(** Position a cursor at the first entry whose key is [>= start] (fence
    binary search, charged per compare).  Raises [Invalid_argument] on a
    hashed run. *)

val cursor_next :
  cursor -> [ `Entry of Types.key * Types.loc | `End | `Corrupt ]
(** Next entry in ascending key order.  Tombstone and quarantine locations
    are emitted as-is — suppression is the merge layer's job.  A unit that
    fails verification makes the cursor fail-stop: [`Corrupt] from then
    on. *)

val free : t -> unit
(** Return the allocation to the device accounting. *)

val get_silent : t -> Types.key -> Types.loc option * int
(** Probe without charging device costs; also returns the number of slots
    probed so a caller holding a DRAM mirror (Pmem-LSM-PinK) can charge
    DRAM costs for the walk. *)

val iter_silent : t -> (Types.key -> Types.loc -> unit) -> unit
(** Iterate live slots without cost charging. *)
