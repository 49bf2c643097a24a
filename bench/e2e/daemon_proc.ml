(* The daemon under test, run as a child process exactly as an operator
   would start it: [shades_cli serve --domains 2 --cache-dir DIR]. *)

module Json = Shades_json.Json

let cli = "_build/default/bin/shades_cli.exe"

type t = { pid : int; sock : string; mutable alive : bool }

(* every daemon not yet reaped, so an aborted run still stops them *)
let children : t list ref = ref []

let reap d =
  if d.alive then begin
    d.alive <- false;
    ignore (Unix.waitpid [] d.pid)
  end

let kill_all () =
  List.iter
    (fun d ->
      if d.alive then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap d
      end)
    !children

let spawn ~sock ~cache_dir args =
  if not (Sys.file_exists cli) then
    failwith (cli ^ " is missing: run from the repository root after dune build");
  let argv =
    Array.of_list
      ([ cli; "serve"; "-l"; "unix:" ^ sock; "--domains"; "2"; "--cache-dir";
         cache_dir; "-q" ]
      @ args)
  in
  (* the daemon's stdout goes to our stderr: our stdout carries the result *)
  let pid = Unix.create_process cli argv Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; sock; alive = true } in
  children := d :: !children;
  d

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.alive <- false;
      true

(* Connect [n] clients, retrying while the daemon binds and listens. *)
let connect d n =
  let deadline = Loadgen.now_ns () + 30_000_000_000 in
  let rec one () =
    match Loadgen.connect d.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if exited d then failwith "daemon exited during start-up";
        if Loadgen.now_ns () > deadline then failwith "daemon did not come up";
        Unix.sleepf 0.001;
        one ()
  in
  List.init n (fun _ -> one ())

let counters c =
  let reply = Loadgen.call c {|{"op":"stats"}|} in
  match Json.of_string reply with
  | Ok r -> (
      match Option.bind (Json.member "result" r) (Json.member "counters") with
      | Some (Json.Obj members) -> members
      | _ -> failwith ("stats reply without counters: " ^ reply))
  | Error e -> failwith ("unparsable stats reply: " ^ e)

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Ask the daemon to stop over [c], close every client, and wait for the
   process; one that ignores the request is killed after ten seconds. *)
let stop d c others =
  ignore (Loadgen.call c {|{"op":"shutdown"}|});
  List.iter Loadgen.close (c :: others);
  let deadline = Loadgen.now_ns () + 10_000_000_000 in
  while d.alive && not (exited d) do
    if Loadgen.now_ns () > deadline then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d
    end
    else Unix.sleepf 0.002
  done
