module Metrics = Shades_runtime.Metrics

(* Classic LRU: a hash table from key to node, nodes chained in a
   doubly-linked recency list ([first] most-recent, [last]
   least-recent).  No [Hashtbl.iter]/[fold] anywhere, so no unspecified
   iteration order can escape (shadescheck's hashtbl-order rule stays
   clean by construction).

   Behind the memory tier sits an optional *disk tier*: one file per
   key under [persist.dir], written atomically (temp file in the same
   directory, then [Unix.rename]).  The memory LRU is a recency front;
   the disk store is the content-addressed ground truth that survives
   restarts.  All disk I/O happens outside the LRU mutex — only the
   memory structures need it.  A budgeted tier ([persist.max_bytes])
   also keeps a size ledger under its own mutex, so budget enforcement
   costs one [stat] per write instead of a scan of the directory. *)

(* Age order of the budget: oldest mtime first, the name breaking ties
   deterministically. *)
module Aged = Set.Make (struct
  type t = float * string

  let compare (ma, na) (mb, nb) =
    match Float.compare ma mb with 0 -> String.compare na nb | c -> c
end)

(* What a budgeted tier's directory holds, as far as this process
   knows: every entry file with its mtime and size, the same files in
   age order, and their byte total.  Sibling writers are folded in by a
   full rescan once this process has written [budget] bytes since the
   last one. *)
type ledger = {
  lock : Mutex.t;
  dir : string;
  budget : int;
  files : (string, float * int) Hashtbl.t;  (** name -> (mtime, size) *)
  mutable by_age : Aged.t;
  mutable total : int;
  mutable since_scan : int;  (** bytes written since the last rescan *)
}

type 'a persist = {
  dir : string;
  encode : 'a -> string;
  decode : string -> ('a, string) result;
  max_bytes : int option;
}

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (** towards [first] *)
  mutable next : 'a node option;  (** towards [last] *)
}

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  mutable first : 'a node option;
  mutable last : 'a node option;
  capacity : int;
  metrics : Metrics.t;
  name : string;
  mutable entries : int;
  persist : 'a persist option;
  tmp_seq : int Atomic.t;  (** uniquifies concurrent temp-file names *)
  ledger : ledger option;  (** [Some] iff [persist.max_bytes] is set *)
}

let counter t what = t.name ^ "_" ^ what

(* --- key -> file name ---

   Injective escaping: bytes outside [A-Za-z0-9._-] (and '%' itself)
   become "%XX".  Keys like "<hex>/pe/v1" therefore map to readable
   file names ("<hex>%2Fpe%2Fv1") and no two keys can collide. *)

let safe_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
  | _ -> false

let file_of_key key =
  let buf = Buffer.create (String.length key + 8) in
  String.iter
    (fun c ->
      if safe_char c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    key;
  Buffer.contents buf

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- the disk tier's budget ledger --- *)

(* in-flight temp files of this or a sibling daemon: never evict them
   (a concurrent rename would fail), never count them (transient) *)
let is_tmp name =
  let rec has_sub i =
    i + 5 <= String.length name
    && (String.sub name i 5 = ".tmp." || has_sub (i + 1))
  in
  has_sub 0

(* A temp file "<file>.tmp.<pid>.<seq>" whose writer is gone: not this
   process, and [kill pid 0] says no such process.  A live writer (or
   one we may not signal) keeps its file. *)
let orphaned name =
  match List.rev (String.split_on_char '.' name) with
  | seq :: pid :: "tmp" :: _ :: _ -> (
      match (int_of_string_opt pid, int_of_string_opt seq) with
      | Some pid, Some _ when pid > 0 && pid <> Unix.getpid () -> (
          match Unix.kill pid 0 with
          | () -> false
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
          | exception Unix.Unix_error _ -> false)
      | _ -> false)
  | _ -> false

(* Every entry file of the tier as (name, mtime, size), removing the
   temp files of dead writers on the way ([<name>_disk_orphans]).
   Best-effort throughout: a file another daemon already evicted, or a
   stat that races a rename, is skipped, not an error. *)
let scan t dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      List.filter_map
        (fun name ->
          let path = Filename.concat dir name in
          if is_tmp name then begin
            (if orphaned name then
               match Unix.unlink path with
               | () -> Metrics.incr t.metrics (counter t "disk_orphans")
               | exception Unix.Unix_error _ -> ());
            None
          end
          else
            match Unix.stat path with
            | exception Unix.Unix_error _ -> None
            | st when st.Unix.st_kind = Unix.S_REG ->
                Some (name, st.Unix.st_mtime, st.Unix.st_size)
            | _ -> None)
        (Array.to_list names)

(* ledger surgery; all callers hold [l.lock] *)

let forget l name =
  match Hashtbl.find_opt l.files name with
  | Some (mtime, size) ->
      Hashtbl.remove l.files name;
      l.by_age <- Aged.remove (mtime, name) l.by_age;
      l.total <- l.total - size
  | None -> ()

(* an overwrite replaces the old size, never adds to it *)
let record l name ~mtime ~size =
  forget l name;
  Hashtbl.replace l.files name (mtime, size);
  l.by_age <- Aged.add (mtime, name) l.by_age;
  l.total <- l.total + size

let reseed t l =
  Hashtbl.reset l.files;
  l.by_age <- Aged.empty;
  l.total <- 0;
  l.since_scan <- 0;
  List.iter
    (fun (name, mtime, size) -> record l name ~mtime ~size)
    (scan t l.dir)

(* While over budget, delete files oldest-first, never [keep] (the file
   just written).  A victim already gone (a sibling evicted it) leaves
   the ledger with its bytes but is not an eviction of ours; any other
   failure leaves it in place for a later write to retry. *)
let evict t l ~keep =
  let rec go victims =
    if l.total > l.budget then
      match victims () with
      | Seq.Nil -> ()
      | Seq.Cons ((_, name), rest) ->
          (if name <> keep then
             match Unix.unlink (Filename.concat l.dir name) with
             | () ->
                 forget l name;
                 Metrics.incr t.metrics (counter t "disk_evictions")
             | exception Unix.Unix_error (Unix.ENOENT, _, _) -> forget l name
             | exception Unix.Unix_error _ -> ());
          go rest
  in
  go (Aged.to_seq l.by_age)

let set_disk_bytes t l =
  Metrics.set_gauge t.metrics (counter t "disk_bytes") (float_of_int l.total)

(* Fold one successful write into the ledger: stat the file just
   renamed into place, rescan once [budget] bytes were written since the
   last scan (the siblings' share of the directory), then trim. *)
let account t l name =
  Mutex.protect l.lock (fun () ->
      (match Unix.stat (Filename.concat l.dir name) with
      | st ->
          record l name ~mtime:st.Unix.st_mtime ~size:st.Unix.st_size;
          l.since_scan <- l.since_scan + st.Unix.st_size
      | exception Unix.Unix_error _ -> forget l name);
      if l.since_scan >= l.budget then reseed t l;
      evict t l ~keep:name;
      set_disk_bytes t l)

let create ?(name = "cache") ?persist ~capacity ~metrics () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  Option.iter (fun p -> mkdir_p p.dir) persist;
  Metrics.set_gauge metrics (name ^ "_capacity") (float_of_int capacity);
  let ledger =
    match persist with
    | Some { dir; max_bytes = Some budget; _ } ->
        Some
          {
            lock = Mutex.create ();
            dir;
            budget;
            files = Hashtbl.create 64;
            by_age = Aged.empty;
            total = 0;
            since_scan = 0;
          }
    | _ -> None
  in
  let t =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create (2 * capacity);
      first = None;
      last = None;
      capacity;
      metrics;
      name;
      entries = 0;
      persist;
      tmp_seq = Atomic.make 0;
      ledger;
    }
  in
  Option.iter
    (fun l ->
      reseed t l;
      set_disk_bytes t l)
    ledger;
  t

let capacity t = t.capacity
let persistent t = Option.is_some t.persist

(* list surgery; all callers hold [t.mutex] *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.first;
  (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
  t.first <- Some node

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* memory-tier insertion; shared by [put] (which also writes through to
   disk) and disk-hit promotion (which must not write back) *)
let put_memory t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some old ->
          unlink t old;
          Hashtbl.remove t.table key;
          t.entries <- t.entries - 1
      | None -> ());
      (if t.entries >= t.capacity then
         (* evict the least-recently-used entry — from memory only; a
            persisted entry stays on disk and can be promoted back *)
         match t.last with
         | Some lru ->
             unlink t lru;
             Hashtbl.remove t.table lru.key;
             t.entries <- t.entries - 1;
             Metrics.incr t.metrics (counter t "evictions")
         | None -> assert false (* entries >= capacity >= 1 *));
      let node = { key; value; prev = None; next = None } in
      push_front t node;
      Hashtbl.replace t.table key node;
      t.entries <- t.entries + 1;
      Metrics.set_gauge t.metrics (counter t "entries") (float_of_int t.entries))

(* --- disk tier I/O; all of it outside the LRU mutex --- *)

let disk_write t p key value =
  let name = file_of_key key in
  let file = Filename.concat p.dir name in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
      (Atomic.fetch_and_add t.tmp_seq 1)
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (p.encode value));
    (* write-then-rename: readers see either the old file or the new
       one, never a torn write — even across daemons sharing the dir *)
    Unix.rename tmp file
  with
  | () ->
      Metrics.incr t.metrics (counter t "disk_writes");
      Option.iter (fun l -> account t l name) t.ledger
  | exception Sys_error _ | exception Unix.Unix_error _ ->
      (* a full or read-only disk degrades to a memory-only cache *)
      (try Sys.remove tmp with Sys_error _ -> ());
      Metrics.incr t.metrics (counter t "disk_errors")

let disk_find t p key =
  let file = Filename.concat p.dir (file_of_key key) in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | data -> (
      match p.decode data with
      | Ok v ->
          Metrics.incr t.metrics (counter t "disk_hits");
          Some v
      | Error _ | (exception _) ->
          (* a corrupted or truncated file (killed writer, bit rot) is
             a miss, never a crash; the next put overwrites it *)
          Metrics.incr t.metrics (counter t "disk_invalid");
          None)

let find t key =
  let from_memory =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some node ->
            unlink t node;
            push_front t node;
            Metrics.incr t.metrics (counter t "hits");
            Some node.value
        | None -> None)
  in
  match (from_memory, t.persist) with
  | (Some _ as hit), _ -> hit
  | None, Some p -> (
      match disk_find t p key with
      | Some v ->
          (* promote without writing back — the file is already there *)
          put_memory t key v;
          Some v
      | None ->
          Metrics.incr t.metrics (counter t "misses");
          None)
  | None, None ->
      Metrics.incr t.metrics (counter t "misses");
      None

let put t key value =
  put_memory t key value;
  Option.iter (fun p -> disk_write t p key value) t.persist

let find_or_compute t key ~compute =
  match find t key with
  | Some v -> (v, true)
  | None ->
      (* computed outside the lock: a slow compute must not serialize
         every other key's lookups.  Two racing misses on one key both
         compute; last [put] wins — harmless because computes are
         deterministic functions of the key. *)
      let v = compute () in
      put t key v;
      (v, false)

let entries t = locked t (fun () -> t.entries)
