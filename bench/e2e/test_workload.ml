(* The benchmark's request generators: deterministic per seed, distinct
   where a workload needs distinct inputs, and shaped as documented. *)

module W = Shades_e2e.Workload
module Port_graph = Shades_graph.Port_graph

let test_digest_per_seed () =
  let d1 = W.stream_digest ~seed:1 ~count:60 in
  Alcotest.(check string) "same seed, same stream" d1 (W.stream_digest ~seed:1 ~count:60);
  Alcotest.(check bool)
    "new seed, new stream" false
    (d1 = W.stream_digest ~seed:2 ~count:60)

let test_cold_distinct () =
  let specs = List.init 2000 (fun i -> W.cold_spec ~seed:7 i) in
  Alcotest.(check int) "pairwise distinct" 2000
    (List.length (List.sort_uniq String.compare specs))

let test_iso_bijections () =
  let pool = W.iso_pool () in
  for i = 0 to 2 * Array.length pool - 1 do
    let iso = W.iso_request ~seed:3 pool i in
    let n = Port_graph.order pool.(iso.W.base).W.graph in
    let seen = Array.make n false in
    Array.iter (fun v -> seen.(v) <- true) iso.W.perm;
    Alcotest.(check bool) "bijection" true
      (Array.length iso.W.perm = n && Array.for_all Fun.id seen)
  done

(* The share of draws landing on the top tenth of the ranks, against
   the Zipf(1) law H(w/10) / H(w). *)
let test_zipf_head () =
  let w = W.hot_topologies in
  let harmonic k =
    List.fold_left ( +. ) 0. (List.init k (fun r -> 1. /. float_of_int (r + 1)))
  in
  let expected = harmonic (w / 10) /. harmonic w in
  let cdf = W.zipf_cdf w in
  let st = Random.State.make [| 11 |] in
  let draws = 20_000 in
  let head = ref 0 in
  for _ = 1 to draws do
    if W.zipf_rank cdf (Random.State.float st 1.) < w / 10 then incr head
  done;
  let share = float_of_int !head /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "head share %.3f within 0.02 of %.3f" share expected)
    true
    (Float.abs (share -. expected) < 0.02)

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          Alcotest.test_case "stream digest per seed" `Quick test_digest_per_seed;
          Alcotest.test_case "cold-advise specs distinct" `Quick test_cold_distinct;
          Alcotest.test_case "iso permutations are bijections" `Quick test_iso_bijections;
          Alcotest.test_case "zipf head share" `Quick test_zipf_head;
        ] );
    ]
