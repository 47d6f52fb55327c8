(* The allocation tripwires' one counter.

   [Gc.minor_words ()] is exact.  [Gc.quick_stat]'s minor count
   advances only at minor collections (OCaml 5.1), a whole minor heap
   (256k words) at a time, so a bound read through it trips or passes
   with the collection schedule of the process.  Direct major
   allocations come from [quick_stat]'s major and promoted counts:
   promotions are counted once, on the minor side. *)

let measure f =
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    w1 -. w0
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

(* [f ()] and the words it allocated, less the cost of measuring an
   empty thunk, so an allocation-free [f] reads exactly 0. *)
let words f =
  let r, w = measure f in
  let (), idle = measure ignore in
  (r, w -. idle)

(* [f ()] and the words it promoted to the major heap.  A [Gc.minor ()]
   on each side empties the minor heap, so the [promoted_words] delta
   holds every promotion [f] caused, its result's included; with the
   same minor heap size the collection schedule inside [f] is the same
   on every run, so the reading is deterministic within one binary. *)
let promoted f =
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let r = f () in
  Gc.minor ();
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (r, p1 -. p0)
