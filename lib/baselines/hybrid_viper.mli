(** Hybrid-Viper: a Viper-style hybrid DRAM/PMem store (Benson et al.,
    VLDB 2021) — a volatile DRAM hash index over a CRC32C-checked PMem
    value log whose every put is durable when acked.  Group commits pay
    one persist fence per group; recovery replays the whole persisted
    log, the other side of ChameleonDB's instant-restart tradeoff. *)

type t

val create : unit -> t

val store : t -> Kv_common.Store_intf.store
(** First-class store for the harness and the crash checker. *)
