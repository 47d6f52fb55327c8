(** One value per domain, owned by whoever holds the table.

    A memo that guard evaluations on several domains read and write
    (the transformer's watermark cache) needs a private instance per
    domain.  [Domain.DLS] gives that, but a DLS slot is never freed,
    so a key made per algorithm value keeps every instance alive for
    the life of the process.  A {!t} is an ordinary value instead: its
    instances become unreachable together with it. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create make]: no instance yet; each domain's is built by [make]
    on that domain's first {!get}. *)

val get : 'a t -> 'a
(** The calling domain's instance.  Lock-free: a domain writes only
    its own slot, and a growing table is published by
    compare-and-set. *)
