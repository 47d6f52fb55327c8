(* A fixed reference job that measures how fast the box is right now.

   The box shares its host.  Its speed drifts by tens of percent, and a
   slow spell often outlasts a whole run, so wall times taken in two
   runs of the same code disagree by more than any useful bound.  The
   drift follows the memory system: a slow spell stretches a chase of
   cache misses and a burst of minor allocations by about as much as it
   stretches a recovery, while a register-only loop barely moves.  The
   probe runs one of each, and a rep's times are scaled by
   [nominal_s /. probe], the probe taken as the mean of the probes just
   before and just after the rep.

   The probe uses only the standard library, and the cells it chases
   live outside the OCaml heap, so no change to the program under test
   can make it faster or slower, and the recoveries' collections never
   scan it. *)

module A1 = Bigarray.Array1

(* 2^23 four-byte cells, 32 MiB: more than the last-level cache. *)
let cell_bits = 23
let chase_steps = 1_000_000
let alloc_rounds = 12_000

(* What the probe takes on a quiet box, so that scaled times stay close
   to wall times. *)
let nominal_s = 0.23

(* One cycle through every cell (Sattolo's shuffle), from a fixed seed,
   so that every step of the chase misses the cache. *)
let cells =
  lazy
    (let n = 1 lsl cell_bits in
     let a = A1.create Bigarray.int32 Bigarray.c_layout n in
     for i = 0 to n - 1 do
       A1.unsafe_set a i (Int32.of_int i)
     done;
     let st = Random.State.make [| 0x5eed |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = A1.unsafe_get a i in
       A1.unsafe_set a i (A1.unsafe_get a j);
       A1.unsafe_set a j t
     done;
     a)

(* Seconds the probe took. *)
let run () =
  let cells = Lazy.force cells in
  let t0 = Ss_report.Budget.now_s () in
  let j = ref 0 in
  for _ = 1 to chase_steps do
    j := Int32.to_int (A1.unsafe_get cells !j)
  done;
  let acc = ref 0 in
  for k = 1 to alloc_rounds do
    let l = List.init 1000 (fun i -> (i, k)) in
    acc := !acc + List.fold_left (fun a (i, _) -> a + i) 0 l
  done;
  let t1 = Ss_report.Budget.now_s () in
  ignore (Sys.opaque_identity (!j + !acc));
  t1 -. t0

let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)
