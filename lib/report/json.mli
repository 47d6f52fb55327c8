(** Hand-rolled JSON values — the zero-dependency backbone of the
    reporting pipeline.

    Every machine-readable artefact of the repo (experiment tables,
    bench results, traces) is emitted through this one
    type, so a single emitter/parser pair defines the wire format.
    The emitter is deterministic (object fields keep their insertion
    order) and the parser accepts exactly RFC-8259 JSON, which makes
    encode/decode round-trips testable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Field order is preserved by the emitter and the parser. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace).  Strings are
    escaped per RFC 8259; control characters use [\u00XX].  Floats
    render with the shortest decimal form that round-trips; integral
    floats keep a trailing [.] digit so they re-parse as [Float]. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (leading/trailing whitespace
    allowed).  Numbers without [.], [e] or [E] become [Int]; all
    others become [Float].  Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]. *)

val to_int : t -> (int, string) result
(** [Int n] as [n]; anything else is an error. *)

val to_str : t -> (string, string) result
(** [String s] as [s]; anything else is an error. *)

val of_table : ?label:string -> Ss_prelude.Table.t -> t
(** The one table serializer: a JSON object
    [{"table": label?, "headers": [...], "rows": [{col: cell}, ...]}]
    whose rows are keyed by header and whose cells come from the same
    typed {!Ss_prelude.Table.cell}s the text renderer prints —
    integer cells become JSON ints, text cells JSON strings, so
    rendered content is byte-identical between the two emitters. *)
