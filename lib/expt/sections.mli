(** The experiment sections: every table [fasst] prints, as one list.

    A section is a name (a [WHICH] value of its subcommand), a title
    and a table builder.  [fasst table1], [instances], [energy],
    [ablation], [msgnet], [baselines], [transformers], [rollback] and
    [all] each render a list of sections through {!run}, so they share
    one seed discipline and one exit verdict. *)

type t = {
  name : string;
  title : string;
  run : seeds:int list -> Ss_prelude.Rng.t -> Ss_prelude.Table.t;
      (** The table for the corruption seeds [seeds], drawing any
          other randomness from the given generator. *)
}

val table1 : t list
(** Table 1: lazy, greedy, recovery and space. *)

val instances : t list
(** The §5 instances: leader, bfs, cv and sp. *)

val rollback : max_k:int -> t
(** §7 / Figure 1 for [k = 1 .. max_k]. *)

val energy : t
val msgnet : t
val ablation : t

val baselines : t list
(** Naive min+1 BFS against transformed BFS, and Dijkstra's ring. *)

val locality : t
val transformers : t

val all : t list
(** What [fasst all] prints: {!table1}, {!instances},
    [rollback ~max_k:10], {!energy}, {!msgnet}, {!ablation},
    {!baselines} and {!locality}. *)

val print : Format.formatter -> json:bool -> string -> Ss_prelude.Table.t -> unit
(** [print ppf ~json title table]: a ["== title =="] header and the
    text table, or one line of {!Ss_report.Json.of_table} JSON.
    Both read the same typed cells. *)

val run :
  Format.formatter -> json:bool -> seed:int -> seeds:int list -> t list -> int
(** Print each section's table, each built from a fresh generator at
    [seed], in order; the exit code is [1] when any printed cell reads
    ["NO"] ({!Measure.ok}), else [0]. *)
