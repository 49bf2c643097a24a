type ('state, 'msg, 'output) algorithm = {
  init : degree:int -> advice:Shades_bits.Bitstring.t -> 'state;
  send : 'state -> port:int -> 'msg option;
  step : 'state -> (int * 'msg) list -> 'state;
  output : 'state -> 'output option;
}

type crash = { victim : int; at_round : int }

exception Did_not_terminate of int

(* The per-vertex crash round: [max_int] = never.  Duplicate victims
   collapse to the earliest crash; negative rounds clamp to 0 ("crashed
   from initialization"). *)
let crash_schedule ~n faults =
  let crash_at = Array.make n max_int in
  List.iter
    (fun { victim; at_round } ->
      if victim < 0 || victim >= n then
        invalid_arg "Engine: crash victim out of range";
      let r = max 0 at_round in
      if r < crash_at.(victim) then crash_at.(victim) <- r)
    faults;
  crash_at
