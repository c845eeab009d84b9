(** The paper's stock Datalog program. *)

val non_2_colorability : Program.t
(** The paper's Section 4 example: a 4-Datalog program whose goal holds on a
    graph [E] iff the graph has an odd closed walk, i.e. is not
    2-colorable. *)
