(* [Serve.Json] is [Wire.Json], re-exported for perfbench/, which still
   names it; the benchmark follow-up moves perfbench to [Wire.Json] and
   deletes this file. *)
include Wire.Json
