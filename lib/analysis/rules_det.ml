(* Each rule closes over itself through [Lazy] so [Rule.finding] can
   carry the rule's own name/severity without forward references. *)

let over_idents rule unit ~f =
  match unit.Cmt_load.structure with
  | None -> []
  | Some str ->
      let acc = ref [] in
      Rule.iter_idents str ~f:(fun ~sorted p loc ->
          match f ~sorted (Rule.normalize p) with
          | Some message ->
              acc := Rule.finding ~rule ~unit ~loc message :: !acc
          | None -> ());
      List.rev !acc

let starts_with prefix s =
  let np = String.length prefix in
  String.length s >= np && String.sub s 0 np = prefix

(* --- hashtbl-order --- *)

let hashtbl_iterators = [ "Hashtbl.fold"; "Hashtbl.iter" ]

let rec hashtbl_order =
  lazy
    {
      Rule.name = "hashtbl-order";
      severity = Finding.Error;
      doc =
        "Hashtbl.fold/iter whose result can escape without a canonical \
         sort (iteration order is unspecified)";
      check =
        (fun unit ->
          over_idents (Lazy.force hashtbl_order) unit ~f:(fun ~sorted name ->
              if (not sorted) && Rule.matches name hashtbl_iterators then
                Some
                  (name
                  ^ " iterates in unspecified hash order; sort the result \
                     canonically (List.sort under the application or via |>) \
                     or suppress with a justification that order cannot \
                     escape")
              else None));
    }

(* --- ambient-randomness --- *)

let rec ambient_randomness =
  lazy
    {
      Rule.name = "ambient-randomness";
      severity = Finding.Error;
      doc =
        "global Random.* state (incl. Random.self_init) outside an \
         explicitly seeded Random.State";
      check =
        (fun unit ->
          over_idents (Lazy.force ambient_randomness) unit
            ~f:(fun ~sorted:_ name ->
              if starts_with "Random." name
                 && not (starts_with "Random.State." name)
              then
                Some
                  (name
                  ^ " draws from the ambient global generator; thread an \
                     explicitly seeded Random.State through the caller \
                     instead (cf. Exec's [Seeded] delay schedule)")
              else None));
    }

(* --- wall-clock-in-measured-path --- *)

let clock_reads = [ "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time" ]

let rec wall_clock =
  lazy
    {
      Rule.name = "wall-clock-in-measured-path";
      severity = Finding.Error;
      doc =
        "wall-clock reads (Unix.gettimeofday/Sys.time/...) in lib/ outside \
         the sanctioned Metrics.now_ns";
      check =
        (fun unit ->
          if not (Rule.in_dir unit "lib") then []
          else
            over_idents (Lazy.force wall_clock) unit ~f:(fun ~sorted:_ name ->
                if Rule.matches name clock_reads then
                  Some
                    (name
                    ^ " reads the wall clock in library code; route timing \
                       through Metrics.now_ns so measured paths stay \
                       deterministic modulo the one sanctioned clock")
                else None));
    }

(* --- direct-stdout --- *)

let stdout_writers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float"; "Printf.printf";
    "Format.printf"; "Format.print_string"; "Format.print_newline";
    "Format.print_flush";
  ]

let rec direct_stdout =
  lazy
    {
      Rule.name = "direct-stdout-in-lib";
      severity = Finding.Error;
      doc =
        "print_*/Printf.printf in lib/ — library code must write through \
         a formatter the caller supplies";
      check =
        (fun unit ->
          if not (Rule.in_dir unit "lib") then []
          else
            over_idents (Lazy.force direct_stdout) unit
              ~f:(fun ~sorted:_ name ->
                if Rule.matches name stdout_writers then
                  Some
                    (name
                    ^ " writes straight to stdout from library code; take a \
                       Format.formatter (or return the text) so the CLI owns \
                       the channel")
                else None));
    }

let rules =
  [
    Lazy.force hashtbl_order;
    Lazy.force ambient_randomness;
    Lazy.force wall_clock;
    Lazy.force direct_stdout;
  ]
