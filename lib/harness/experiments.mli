(** One experiment per table and figure of the paper's evaluation, plus
    ablations.  Each experiment builds fresh stores, drives them through the
    discrete-event runner and prints the same rows/series the paper reports
    (see DESIGN.md section 4 for the index and EXPERIMENTS.md for measured
    results). *)

type exp = {
  id : string;          (** e.g. "fig10" *)
  title : string;
  run : ?seed:int -> Stores.scale -> string list;
      (** Print the experiment's tables and return the descriptions of its
          enforced checks that failed.  [seed] (default 1) reseeds fig12,
          fig13, tab4, fig3, batch, cluster and chaos: every seed they
          use, store configs included, becomes [base + seed - 1], so seed 1
          reproduces the recorded results.  The other experiments ignore
          it. *)
}

val all : exp list

val ids : unit -> string list

val run_ids : ?seed:int -> scale:Stores.scale -> string list -> string list
(** Run the experiments with the given ids (all when empty) in registry
    order and return their failed checks, each prefixed with its
    experiment id; raises [Invalid_argument] on an unknown id. *)
