(* Order statistics over samples. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* nearest-rank [q]-quantile; 0 on no samples *)
let quantile samples q =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median samples = quantile samples 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* First and third quartiles by Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so spreads printed here match that function. *)
let quartiles samples =
  let a = sorted samples in
  let ld = Array.length a in
  if ld < 2 then
    let x = if ld = 1 then a.(0) else 0. in
    (x, x)
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (cut 1, cut 3)
