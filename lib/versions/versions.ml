(* The one place a format stamp or a cache-key derivation may live.

   shadescheck's version-drift rule enforces the boundary: outside
   lib/versions, a value binding named [*_version] (or [version],
   [format_version], [schema_version]) bound to an integer literal, or
   a string literal spelling a key-grammar marker ("/v%d", "/elect-",
   "/verify-"), is an error.  Bumping a stamp here is therefore the
   whole bump: no stale copy of a derivation can survive elsewhere. *)

let trace_format = 2
let store_schema = 2
let wire_protocol = 1
let advice = 1
let result = 2
let lint_report = 1

let shtr_magic = "SHTR"

(* --- cache-key derivations (DESIGN §13) ---

   advice  ::= <canon-digest>/<task>/v<advice>
   elect   ::= <enc-digest>/<task>/elect-<engine>/v<advice>.<result>
   verify  ::= <enc-digest>/<task>/verify-<outputs-md5>/v<result>

   Tasks and engines arrive as their wire spellings; this module knows
   nothing of the election library, so the derivations stay dependency
   free and every layer (daemon, tests, offline tools) can reproduce a
   key byte-for-byte. *)

let advice_key ~digest ~task = Printf.sprintf "%s/%s/v%d" digest task advice

let elect_key ~digest ~task ~engine =
  Printf.sprintf "%s/%s/elect-%s/v%d.%d" digest task engine advice result

let verify_key ~digest ~task ~outputs_digest =
  Printf.sprintf "%s/%s/verify-%s/v%d" digest task outputs_digest result
