type t = {
  name : string;
  rates : Fault_plan.rates;
  fault_horizon : int;
  corrupt_events : int list;
  corrupt_steps : int list;
}

let quick =
  {
    name = "quick";
    rates = Fault_plan.no_rates;
    fault_horizon = 0;
    corrupt_events = [];
    corrupt_steps = [];
  }

(* Horizons bound the message-fault window: with nonzero drop rates the
   network is perpetually re-perturbed (a dropped update leaves a stale
   mirror that the next proof wave must repair, whose repair traffic is
   itself subject to drops), so a perpetual fault process never
   quiesces.  Self-stabilization promises convergence after the {e
   last} transient fault — the horizon is where that clock starts. *)
let standard =
  {
    name = "standard";
    rates = Fault_plan.rates ~drop_ppm:2_000 ~reorder_ppm:1_000 ~dup_ppm:1_000 ();
    fault_horizon = 30_000;
    corrupt_events = [ 400; 1_100 ];
    corrupt_steps = [ 20; 60 ];
  }

let chaos =
  {
    name = "chaos";
    rates =
      Fault_plan.rates ~drop_ppm:20_000 ~reorder_ppm:10_000 ~dup_ppm:10_000 ();
    fault_horizon = 100_000;
    corrupt_events = [ 300; 900; 1_700 ];
    corrupt_steps = [ 10; 40; 90 ];
  }

let all = [ quick; standard; chaos ]

let msgnet_plan t ~seed =
  Fault_plan.v ~rates:t.rates ~horizon:t.fault_horizon
    ~corrupt_at:t.corrupt_events ~seed ()

let engine_plan t ~seed =
  (* The engine loop has no channels, so only the corruption schedule
     applies; a distinct seed offset decorrelates its victim draws
     from the msgnet plan of the same scenario cell. *)
  Fault_plan.v ~corrupt_at:t.corrupt_steps ~seed:(seed + 0x10001) ()
