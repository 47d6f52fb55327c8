(** Plain-text table rendering for experiment reports.

    The benchmark harness prints one table per paper artefact; this
    module renders aligned, boxed ASCII tables on any formatter.

    Cells are {e typed} ({!cell}): a row keeps integers as integers
    rather than pre-rendered strings, so the same table value can be
    rendered as text and serialized to machine-readable JSON (see
    [Ss_report.Json.of_table]) with guaranteed-identical
    content — the text emitter and the JSON emitter read one record. *)

type cell =
  | S of string  (** Free-form text cell. *)
  | I of int  (** Integer cell; renders as [string_of_int]. *)

type t
(** A table under construction: a header row plus data rows. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add : t -> cell list -> unit
(** [add t cells] appends a typed data row.  Rows shorter than the
    header are padded with empty cells; longer rows extend the table
    width. *)

val headers : t -> string list
(** The column headers, in order. *)

val rows : t -> cell list list
(** The data rows in insertion order (typed — render with
    {!cell_text}). *)

val cell_text : cell -> string
(** The text rendering of one cell (exactly what {!render} prints). *)

val render : Format.formatter -> t -> unit
(** Pretty-print the table with aligned columns and a separator line
    under the header. *)

val print : t -> unit
(** [print t] renders [t] on [Format.std_formatter] followed by a
    newline flush. *)
