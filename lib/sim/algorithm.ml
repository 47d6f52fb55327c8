type ('s, 'i) view = { input : 'i; self : 's; neighbors : 's array; node : int }

type ('s, 'i) rule = {
  rule_name : string;
  guard : ('s, 'i) view -> bool;
  action : ('s, 'i) view -> 's;
}

type 's store = { copy : 's -> 's; write : 's array -> int -> 's -> unit }

let immutable = { copy = Fun.id; write = (fun states p s -> states.(p) <- s) }

let in_place ~copy ~assign =
  { copy; write = (fun states p s -> assign states.(p) s) }

type ('s, 'i) t = {
  algo_name : string;
  equal : 's -> 's -> bool;
  rules : ('s, 'i) rule list;
  pp_state : Format.formatter -> 's -> unit;
  store : 's store;
}

(* Direct recursion over the rule list: a guard sweep runs on every
   event, and List.find_opt/exists would allocate a closure per call. *)
let rec first_enabled view = function
  | [] -> None
  | r :: rest -> if r.guard view then Some r else first_enabled view rest

let rec any_enabled view = function
  | [] -> false
  | r :: rest -> r.guard view || any_enabled view rest

let enabled_rule algo view = first_enabled view algo.rules
let is_enabled algo view = any_enabled view algo.rules
let rule_names algo = List.map (fun r -> r.rule_name) algo.rules

let map_input f algo =
  let adapt_view v = { v with input = f v.input } in
  {
    algo with
    rules =
      List.map
        (fun r ->
          {
            r with
            guard = (fun v -> r.guard (adapt_view v));
            action = (fun v -> r.action (adapt_view v));
          })
        algo.rules;
  }
