(* The per-claim experiment tables (E1-E14 and A1 of EXPERIMENTS.md).

   Each experiment regenerates one of the paper's tractability claims as a
   printed table: a parameter sweep, measured wall-clock times, and the
   paper-predicted shape (fitted growth exponents, crossovers, winners).
   Correctness is asserted along the way, so the harness doubles as an
   integration test. *)

open Relational

let f2s = Util.seconds_string

let int = string_of_int

(* ------------------------------------------------------------------ *)
(* Structured Boolean relations with controllable size                  *)
(* ------------------------------------------------------------------ *)

(* A "box": product of per-coordinate subsets; closed under AND, OR,
   majority and XOR3 alike, so every closure test runs to completion. *)
let box_relation ~arity ~free =
  let masks = ref [] in
  let rec fill i mask =
    if i = free then masks := mask :: !masks else begin
      fill (i + 1) mask;
      fill (i + 1) (mask lor (1 lsl i))
    end
  in
  fill 0 0;
  Schaefer.Boolean_relation.create arity !masks

(* Downset of the seed mask with [bits] low ones: AND-closed (Horn), size
   exactly 2^bits. *)
let downset_relation ~arity ~bits =
  let seed = (1 lsl bits) - 1 in
  let m = ref seed in
  let all = ref [ 0 ] in
  while !m > 0 do
    all := !m :: !all;
    m := (!m - 1) land seed
  done;
  Schaefer.Boolean_relation.create arity !all

(* Affine subspace of dimension [dim] inside {0,1}^arity: basis vectors with
   distinct leading bits guarantee independence, so the size is exactly
   2^dim. *)
let affine_relation ~seed ~arity ~dim =
  let st = Random.State.make [| seed; arity; dim |] in
  let basis =
    List.init dim (fun i ->
        (1 lsl i) lor (Random.State.int st (1 lsl (arity - dim)) lsl dim))
  in
  let offset = Random.State.int st (1 lsl arity) in
  let masks = ref [] in
  let rec span acc = function
    | [] -> masks := acc lxor offset :: !masks
    | v :: rest ->
      span acc rest;
      span (acc lxor v) rest
  in
  span 0 basis;
  Schaefer.Boolean_relation.create arity (List.sort_uniq compare !masks)

(* A Horn-only relation (not 0/1-valid, not dual Horn, not bijunctive, not
   affine): { f, fa, fb, fc, fab, fbc, fca } over bits f,a,b,c. *)
let horn_only_relation = Schaefer.Boolean_relation.create 4 [ 1; 3; 5; 9; 7; 13; 11 ]

(* Bijunctive target that is neither Horn nor 0/1-valid: models of
   (x | y) & ~z. *)
let bijunctive_relation = Schaefer.Boolean_relation.create 3 [ 0b001; 0b010; 0b011 ]

let boolean_target name relation =
  Structure.of_relations
    (Vocabulary.create [ (name, Schaefer.Boolean_relation.arity relation) ])
    ~size:2
    [ (name, Schaefer.Boolean_relation.tuples relation) ]

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 3.1: polynomial recognition of Schaefer classes          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  Util.header "E1  Schaefer-class recognition scales polynomially (Theorem 3.1)";
  let arity = 14 in
  let sizes = [ 4; 5; 6; 7; 8 ] in
  let rows = ref [] and horn_series = ref [] and maj_series = ref [] in
  List.iter
    (fun free ->
      let r = box_relation ~arity ~free in
      let size = Schaefer.Boolean_relation.cardinal r in
      let ok_horn, t_horn =
        Util.time (fun () -> Schaefer.Classify.relation_in_class r Schaefer.Classify.Horn)
      in
      let ok_bij, t_bij =
        Util.time (fun () ->
            Schaefer.Classify.relation_in_class r Schaefer.Classify.Bijunctive)
      in
      let ok_aff, t_aff =
        Util.time (fun () -> Schaefer.Classify.relation_in_class r Schaefer.Classify.Affine)
      in
      assert (ok_horn && ok_bij && ok_aff);
      horn_series := (size, t_horn) :: !horn_series;
      maj_series := (size, t_bij) :: !maj_series;
      rows := [ int size; f2s t_horn; f2s t_bij; f2s t_aff ] :: !rows)
    sizes;
  Util.table
    ~columns:[ "|R|"; "Horn test"; "bijunctive test"; "affine test" ]
    (List.rev !rows);
  Util.note "fitted exponent: Horn (AND-closure, O(|R|^2)) ~ %.2f"
    (Util.fitted_exponent !horn_series);
  Util.note "fitted exponent: bijunctive (majority-closure, O(|R|^3)) ~ %.2f"
    (Util.fitted_exponent !maj_series);
  Util.note "paper: all six class tests are polynomial-time closure checks."

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3.2: defining formulas in polynomial time                *)
(* ------------------------------------------------------------------ *)

let e2 () =
  Util.header "E2  Defining-formula construction (Theorem 3.2)";
  let rows = ref [] in
  List.iter
    (fun bits ->
      let arity = 12 in
      let horn = downset_relation ~arity ~bits in
      let f, t_horn = Util.time (fun () -> Schaefer.Define.horn_formula horn) in
      let aff = affine_relation ~seed:17 ~arity ~dim:bits in
      let s, t_aff = Util.time (fun () -> Schaefer.Define.affine_system aff) in
      let bij = box_relation ~arity ~free:bits in
      let g, t_bij = Util.time (fun () -> Schaefer.Define.bijunctive_formula bij) in
      rows :=
        [
          int (1 lsl bits);
          f2s t_horn;
          int (Schaefer.Cnf.size f);
          f2s t_aff;
          int (List.length s.Schaefer.Gf2.equations);
          f2s t_bij;
          int (Schaefer.Cnf.size g);
        ]
        :: !rows)
    [ 3; 4; 5; 6; 7 ];
  Util.table
    ~columns:
      [ "|R|"; "Horn time"; "Horn size"; "affine time"; "affine eqs"; "2CNF time";
        "2CNF size" ]
    (List.rev !rows);
  Util.note "paper: affine formulas are bounded by the relation size (<= arity+1";
  Util.note "equations after Gaussian elimination); clausal ones are O(arity^2) per";
  Util.note "relation, built in polynomial time."

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3.3 vs Theorem 3.4: formula route vs direct route        *)
(* ------------------------------------------------------------------ *)

let e3_case label target sizes =
  let vocab = Structure.vocabulary target in
  let rows = ref [] and formula_series = ref [] and direct_series = ref [] in
  List.iter
    (fun tuples ->
      let a =
        Testkit.Workloads.random_structure ~seed:(tuples * 7) vocab
          ~size:(max 4 (tuples / 4)) ~tuples
      in
      let r1, t_formula = Util.time (fun () -> Schaefer.Uniform.solve a target) in
      let r2, t_direct = Util.time (fun () -> Oracle.Schaefer_direct.solve a target) in
      let answer = function
        | Schaefer.Uniform.Hom _ -> "sat"
        | Schaefer.Uniform.No_hom _ -> "unsat"
        | Schaefer.Uniform.Not_applicable _ -> "n/a"
      in
      let direct_answer = function
        | Oracle.Schaefer_direct.Hom _ -> "sat"
        | Oracle.Schaefer_direct.No_hom -> "unsat"
        | Oracle.Schaefer_direct.Not_applicable _ -> "n/a"
      in
      assert (answer r1 = direct_answer r2);
      formula_series := (tuples, t_formula) :: !formula_series;
      direct_series := (tuples, t_direct) :: !direct_series;
      rows :=
        [ label; int tuples; answer r1; f2s t_formula; f2s t_direct;
          Printf.sprintf "%.1fx" (t_formula /. t_direct) ]
        :: !rows)
    sizes;
  (List.rev !rows, Util.fitted_exponent !formula_series, Util.fitted_exponent !direct_series)

let e3 () =
  Util.header "E3  Formula route (Thm 3.3) vs direct route (Thm 3.4)";
  let horn_target = boolean_target "R" horn_only_relation in
  assert (Schaefer.Classify.classify horn_target = Some Schaefer.Classify.Horn);
  let bij_target = boolean_target "R" bijunctive_relation in
  assert (Schaefer.Classify.classify bij_target = Some Schaefer.Classify.Bijunctive);
  let sizes = [ 250; 500; 1000; 2000; 4000 ] in
  let horn_rows, hf, hd = e3_case "Horn" horn_target sizes in
  let bij_rows, bf, bd = e3_case "bijunctive" bij_target sizes in
  Util.table
    ~columns:[ "class"; "|A| tuples"; "answer"; "formula route"; "direct route"; "ratio" ]
    (horn_rows @ bij_rows);
  Util.note "fitted exponents: Horn formula %.2f vs direct %.2f; bijunctive %.2f vs %.2f"
    hf hd bf bd;
  Util.note
    "paper: the direct algorithms skip formula construction and save roughly a";
  Util.note "factor of ||B||/|B| (cubic -> quadratic); the winner is the direct route."

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 3.5: Booleanization blow-up is logarithmic                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  Util.header "E4  Booleanization blow-up (Lemma 3.5)";
  let vocab = Vocabulary.create [ ("R", 2) ] in
  let rows = ref [] in
  List.iter
    (fun n ->
      let a = Testkit.Workloads.random_structure ~seed:n vocab ~size:20 ~tuples:200 in
      let b = Testkit.Workloads.random_structure ~seed:(n + 1) vocab ~size:n ~tuples:(n * n / 2) in
      let (ab, bb), t = Util.time (fun () -> Schaefer.Booleanize.encode_pair a b) in
      let bits = Schaefer.Booleanize.bits_needed n in
      assert (Homomorphism.exists a b = Homomorphism.exists ab bb);
      rows :=
        [
          int n;
          int bits;
          Printf.sprintf "%.2f" (float_of_int (Structure.norm ab) /. float_of_int (Structure.norm a));
          Printf.sprintf "%.2f" (float_of_int (Structure.norm bb) /. float_of_int (Structure.norm b));
          f2s t;
          "yes";
        ]
        :: !rows)
    [ 2; 3; 4; 6; 8 ];
  Util.table
    ~columns:[ "|B|"; "bits"; "||A_b||/||A||"; "||B_b||/||B||"; "encode time"; "hom preserved" ]
    (List.rev !rows);
  Util.note "paper: the conversion blows the instance up by a factor ceil(log2 |B|)."

(* ------------------------------------------------------------------ *)
(* E5 — Proposition 3.6: two-atom containment is polynomial              *)
(* ------------------------------------------------------------------ *)

let e5 () =
  Util.header "E5  Two-atom containment via Booleanization (Proposition 3.6, Saraiya)";
  let rows = ref [] and series = ref [] in
  List.iter
    (fun predicates ->
      let q1 =
        Testkit.Workloads.random_two_atom_query ~seed:predicates ~predicates ~arity:2
          ~variables:(predicates * 2)
      in
      let preds =
        List.init predicates (fun i -> (Printf.sprintf "P%d" i, 2))
      in
      let q2 =
        Testkit.Workloads.random_query ~seed:(predicates * 3) ~predicates:preds
          ~variables:4 ~atoms:6
      in
      let r_fast, t_fast = Util.time (fun () -> Cq.Containment.contained_two_atom q1 q2) in
      let r_cm, t_cm = Util.time (fun () -> Cq.Containment.contained q1 q2) in
      assert (r_fast = r_cm);
      series := (Cq.Query.norm q1, t_fast) :: !series;
      rows :=
        [
          int predicates;
          int (Cq.Query.norm q1);
          string_of_bool r_fast;
          f2s t_fast;
          f2s t_cm;
        ]
        :: !rows)
    [ 4; 8; 16; 32; 64 ];
  Util.table
    ~columns:[ "predicates"; "||Q1||"; "contained"; "2-atom route"; "Chandra-Merlin" ]
    (List.rev !rows);
  Util.note "fitted exponent of the two-atom route: %.2f (paper: polynomial,"
    (Util.fitted_exponent !series);
  Util.note "O(||Q2|| log ||Q1|| + ||Q1||)); both routes must and do agree."

(* ------------------------------------------------------------------ *)
(* E6 — Examples 3.7/3.8: 2-colorability and CSP(C4) by Booleanization   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  Util.header "E6  2-Colorability and CSP(C4) through Booleanization (Examples 3.7/3.8)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let answer, t =
        Util.time (fun () ->
            match Schaefer.Booleanize.solve g Testkit.Workloads.k2 with
            | Schaefer.Booleanize.Hom _ -> true
            | Schaefer.Booleanize.No_hom _ -> false
            | Schaefer.Booleanize.Not_schaefer _ -> assert false)
      in
      assert (answer = (n mod 2 = 0));
      let c = Testkit.Workloads.directed_cycle n in
      let c4 = Testkit.Workloads.directed_cycle 4 in
      let answer4, t4 =
        Util.time (fun () ->
            match Schaefer.Booleanize.solve c c4 with
            | Schaefer.Booleanize.Hom _ -> true
            | Schaefer.Booleanize.No_hom _ -> false
            | Schaefer.Booleanize.Not_schaefer _ -> assert false)
      in
      assert (answer4 = (n mod 4 = 0));
      rows :=
        [
          int n;
          string_of_bool answer;
          f2s t;
          string_of_bool answer4;
          f2s t4;
        ]
        :: !rows)
    [ 63; 64; 128; 255; 256; 512 ];
  Util.table
    ~columns:
      [ "cycle n"; "C_n -> K2"; "time (2-SAT route)"; "C_n -> C4"; "time (affine route)" ]
    (List.rev !rows);
  Util.note "paper: K2 Booleanizes to a bijunctive/affine structure; C4 to an affine";
  Util.note "one — both CSPs are solved by the uniform Schaefer machinery."

(* ------------------------------------------------------------------ *)
(* E7 — Theorems 4.7/4.9: the k-pebble game in n^{O(k)}                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  Util.header "E7  Existential k-pebble game scaling (Theorems 4.7/4.9)";
  let rows = ref [] and series2 = ref [] in
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let { Pebble.Game.family; stats; _ }, t =
        Util.time ~repeat:1 (fun () ->
            Option.get (Pebble.Game.run ~k:2 g Testkit.Workloads.k2))
      in
      let wins = Pebble.Game.mem family [] in
      assert wins;
      (* 2 pebbles never refute cycles. *)
      series2 := (n, t) :: !series2;
      rows :=
        [ "2"; int n; string_of_bool (not wins); int stats.initial_configs; f2s t ]
        :: !rows)
    [ 8; 16; 32; 64 ];
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let { Pebble.Game.family; stats; _ }, t =
        Util.time ~repeat:1 (fun () ->
            Option.get (Pebble.Game.run ~k:3 g Testkit.Workloads.k2))
      in
      let wins = Pebble.Game.mem family [] in
      (* 3 pebbles decide 2-colorability exactly (Theorem 4.8 for K2). *)
      assert (wins = (n mod 2 = 0));
      rows :=
        [ "3"; int n; string_of_bool (not wins); int stats.initial_configs; f2s t ]
        :: !rows)
    [ 7; 8; 11; 12; 15; 16 ];
  Util.table
    ~columns:[ "k"; "cycle n"; "spoiler wins"; "configs"; "time" ]
    (List.rev !rows);
  Util.note "fitted exponent in n at k=2: %.2f (paper bound: O(n^{2k}) = n^4)"
    (Util.fitted_exponent !series2);
  Util.note "3 pebbles decide 2-colorability exactly: not CSP(K2) is 3-Datalog.";
  Util.note "2 pebbles never refute a cycle: 2-consistency is too weak (cf. E8)."

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 4.7(2): the canonical k-Datalog program rho_B            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  Util.header "E8  rho_B: the game as a k-Datalog program (Theorem 4.7(2))";
  let rows = ref [] in
  let program2 = Datalog.Rho.build Testkit.Workloads.k2 ~k:2 in
  let program3 = Datalog.Rho.build Testkit.Workloads.k2 ~k:3 in
  Util.note "rho_K2 with k=2: %d rules (width %d); with k=3: %d rules (width %d)"
    (List.length program2.Datalog.Program.rules)
    (Datalog.Program.width program2)
    (List.length program3.Datalog.Program.rules)
    (Datalog.Program.width program3);
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let datalog_answer, t_datalog =
        Util.time ~repeat:1 (fun () -> Datalog.Eval.goal_holds program3 g)
      in
      let game_answer, t_game =
        Util.time ~repeat:1 (fun () -> Pebble.Game.spoiler_wins ~k:3 g Testkit.Workloads.k2)
      in
      assert (datalog_answer = game_answer);
      assert (game_answer = (n mod 2 = 1));
      rows :=
        [ int n; string_of_bool datalog_answer; f2s t_datalog; f2s t_game ] :: !rows)
    [ 5; 6; 9; 10 ];
  Util.table
    ~columns:[ "cycle n"; "spoiler wins"; "rho_B (k=3, semi-naive)"; "pebble game (k=3)" ]
    (List.rev !rows);
  Util.note "paper: for fixed B the game is expressible as a k-Datalog program; both";
  Util.note "implementations must and do agree with each other.";
  (* Naive vs semi-naive ablation on the paper's non-2-colorability program. *)
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let a1, t_naive =
        Util.time ~repeat:1 (fun () ->
            Oracle.Naive_datalog.goal_holds Datalog.Programs.non_2_colorability g)
      in
      let a2, t_semi =
        Util.time ~repeat:1 (fun () ->
            Datalog.Eval.goal_holds Datalog.Programs.non_2_colorability g)
      in
      assert (a1 = a2 && a1 = (n mod 2 = 1));
      rows := [ int n; string_of_bool a1; f2s t_naive; f2s t_semi ] :: !rows)
    [ 15; 16; 31; 32 ];
  Util.note "";
  Util.note "ablation: the paper's 4-Datalog Non-2-Colorability program";
  Util.table
    ~columns:[ "cycle n"; "not 2-colorable"; "naive eval"; "semi-naive eval" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 5.4: bounded treewidth uniformizes                       *)
(* ------------------------------------------------------------------ *)

let e9 () =
  Util.header "E9  Bounded-treewidth dynamic programming (Theorem 5.4)";
  let rows = ref [] in
  let series = Hashtbl.create 4 in
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          let a = Testkit.Workloads.random_partial_ktree ~seed:(n + k) ~n ~k ~keep:0.9 in
          let b = Testkit.Workloads.clique (k + 1) in
          let dp, t_dp =
            Util.time ~repeat:1 (fun () -> Treewidth.Td_solver.solve_with_stats a b)
          in
          let mac, t_mac = Util.time ~repeat:1 (fun () -> Homomorphism.find a b) in
          assert ((fst dp <> None) = (mac <> None));
          let old = Option.value ~default:[] (Hashtbl.find_opt series k) in
          Hashtbl.replace series k ((n, t_dp) :: old);
          rows :=
            [
              int k;
              int n;
              int (snd dp).Treewidth.Td_solver.width;
              (match fst dp with Some _ -> "sat" | None -> "unsat");
              f2s t_dp;
              f2s t_mac;
            ]
            :: !rows)
        [ 10; 20; 40; 80 ])
    [ 1; 2; 3 ];
  Util.table
    ~columns:
      [ "k"; "|A|"; "width used"; "answer"; "treewidth DP"; "MAC backtracking" ]
    (List.rev !rows);
  List.iter
    (fun k ->
      Util.note "fitted exponent of the DP in |A| at k=%d: %.2f (paper: polynomial for fixed k)"
        k
        (Util.fitted_exponent (Hashtbl.find series k)))
    [ 1; 2; 3 ];
  (* Containment application: Q2 of bounded treewidth. *)
  let rows = ref [] in
  List.iter
    (fun len ->
      let q2 = Testkit.Workloads.chain_query len in
      let q1 =
        Testkit.Workloads.random_query ~seed:len ~predicates:[ ("E", 2) ]
          ~variables:(len / 2) ~atoms:len
      in
      let d1, _ = Cq.Canonical.database q1 in
      let d2, _ = Cq.Canonical.database q2 in
      let a_tw, t_tw = Util.time ~repeat:1 (fun () -> Treewidth.Td_solver.exists d2 d1) in
      let a_cm, t_cm = Util.time ~repeat:1 (fun () -> Homomorphism.exists d2 d1) in
      assert (a_tw = a_cm);
      rows := [ int len; string_of_bool a_tw; f2s t_tw; f2s t_cm ] :: !rows)
    [ 8; 16; 32; 64 ];
  Util.note "";
  Util.note "containment Q1 <= Q2 with chain (treewidth-1) Q2:";
  Util.table
    ~columns:[ "chain length"; "contained"; "treewidth route"; "generic hom search" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E10 — the NP-complete contrast                                        *)
(* ------------------------------------------------------------------ *)

let e10 () =
  Util.header "E10 The intractable general case (Section 2: CSP is NP-complete)";
  let rows = ref [] and series = ref [] in
  List.iter
    (fun m ->
      let a = Testkit.Workloads.clique (m + 1) and b = Testkit.Workloads.clique m in
      let (answer, stats), t =
        Util.time ~repeat:1 (fun () -> Homomorphism.find_with_stats a b)
      in
      assert (answer = None);
      series := (m, t) :: !series;
      rows := [ Printf.sprintf "K%d -> K%d" (m + 1) m; int stats.Homomorphism.nodes; f2s t ]
        :: !rows)
    [ 4; 5; 6; 7; 8 ];
  Util.table
    ~columns:[ "instance"; "search nodes"; "MAC backtracking" ]
    (List.rev !rows);
  Util.note "uncolorability proofs explode combinatorially: no tractable route applies";
  Util.note "(cliques have maximal treewidth, are cyclic, and K_m is not Schaefer).";
  (* 1-in-3 SAT: brute force vs MAC on the NP-complete Schaefer side. *)
  let rows = ref [] in
  let brute a b =
    let n = Structure.size a in
    let h = Array.make n 0 in
    let found = ref false in
    (try
       for mask = 0 to (1 lsl n) - 1 do
         for i = 0 to n - 1 do
           h.(i) <- (mask lsr i) land 1
         done;
         if Homomorphism.is_homomorphism a b h then begin
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  in
  List.iter
    (fun vars ->
      let b = Testkit.Workloads.one_in_three_target in
      let a =
        Testkit.Workloads.random_structure ~seed:vars (Structure.vocabulary b) ~size:vars
          ~tuples:(vars * 2)
      in
      let r_brute, t_brute = Util.time ~repeat:1 (fun () -> brute a b) in
      let r_mac, t_mac = Util.time ~repeat:1 (fun () -> Homomorphism.exists a b) in
      assert (r_brute = r_mac);
      rows :=
        [ int vars; string_of_bool r_mac; f2s t_brute; f2s t_mac ] :: !rows)
    [ 10; 14; 18; 22 ];
  Util.note "";
  Util.note "positive 1-in-3 SAT (the non-Schaefer Boolean target):";
  Util.table
    ~columns:[ "variables"; "sat"; "exhaustive 2^n"; "MAC backtracking" ]
    (List.rev !rows);
  Util.note "paper: Schaefer's dichotomy places this target outside all six tractable";
  Util.note "classes; exhaustive search doubles per variable while the propagation-";
  Util.note "based search merely postpones the blow-up."


(* ------------------------------------------------------------------ *)
(* E11 — three renderings of the k-pebble game agree                     *)
(* ------------------------------------------------------------------ *)

let e11 () =
  Util.header "E11 One query, three renderings: game, k-Datalog, LFP (Thm 4.7)";
  let rows = ref [] in
  let rho2 = Datalog.Rho.build Testkit.Workloads.k2 ~k:2 in
  List.iter
    (fun n ->
      let g = Testkit.Workloads.undirected_cycle n in
      let a1, t_game =
        Util.time ~repeat:1 (fun () -> Pebble.Game.spoiler_wins ~k:2 g Testkit.Workloads.k2)
      in
      let a2, t_rho = Util.time ~repeat:1 (fun () -> Datalog.Eval.goal_holds rho2 g) in
      let a3, t_lfp =
        Util.time ~repeat:1 (fun () ->
            Folog.Game_sentence.spoiler_wins ~k:2 g Testkit.Workloads.k2)
      in
      assert (a1 = a2 && a2 = a3);
      rows := [ int n; string_of_bool a1; f2s t_game; f2s t_rho; f2s t_lfp ] :: !rows)
    [ 3; 4; 5 ];
  Util.table
    ~columns:
      [ "cycle n"; "spoiler wins (k=2)"; "combinatorial game"; "rho_B program";
        "LFP sentence on A+B" ]
    (List.rev !rows);
  Util.note "paper: Theorem 4.7 gives the query as (1) an LFP sentence over the";
  Util.note "tagged sum and (2) a k-Datalog program for fixed B; the combinatorial";
  Util.note "k-consistency algorithm is the efficient implementation. All three agree;";
  Util.note "the declarative renderings pay orders of magnitude for their generality."

(* ------------------------------------------------------------------ *)
(* E12 — counting homomorphisms under bounded treewidth                  *)
(* ------------------------------------------------------------------ *)

let e12 () =
  Util.header "E12 Counting homomorphisms (bounded-treewidth extension)";
  let rows = ref [] and dp_series = ref [] and enum_series = ref [] in
  List.iter
    (fun n ->
      let a = Testkit.Workloads.path n in
      let b = Testkit.Workloads.clique 3 in
      let count_dp, t_dp = Util.time ~repeat:1 (fun () -> Treewidth.Td_solver.count a b) in
      let count_enum, t_enum = Util.time ~repeat:1 (fun () -> Homomorphism.count a b) in
      assert (count_dp = count_enum);
      dp_series := (n, t_dp) :: !dp_series;
      enum_series := (n, t_enum) :: !enum_series;
      rows := [ int n; int count_dp; f2s t_dp; f2s t_enum ] :: !rows)
    [ 6; 10; 14; 18 ];
  Util.table
    ~columns:[ "path n"; "#hom(P_n, K3)"; "treewidth DP"; "enumeration" ]
    (List.rev !rows);
  Util.note "the count 3*2^(n-1) grows exponentially, so enumeration must too";
  Util.note "(fitted exponent %.1f in n); the sum-product DP stays polynomial (%.1f)."
    (Util.fitted_exponent !enum_series)
    (Util.fitted_exponent !dp_series)

(* ------------------------------------------------------------------ *)
(* E13 — wide relations: Gaifman vs incidence decompositions             *)
(* ------------------------------------------------------------------ *)

(* A chain of overlapping r-ary facts: T(x0..x_{r-1}), T(x_{r-1}..), ... *)
let wide_chain ~arity ~facts =
  let n = (facts * (arity - 1)) + 1 in
  let vocab = Vocabulary.create [ ("T", arity) ] in
  let s = ref (Structure.create vocab ~size:n) in
  for f = 0 to facts - 1 do
    let t = Array.init arity (fun i -> (f * (arity - 1)) + i) in
    s := Structure.add_tuple !s "T" t
  done;
  !s

let e13 () =
  Util.header "E13 Wide relations: incidence beats Gaifman decompositions (Sec 5)";
  let rows = ref [] in
  List.iter
    (fun arity ->
      let a = wide_chain ~arity ~facts:6 in
      let vocab = Structure.vocabulary a in
      let b = Testkit.Workloads.random_structure ~seed:arity vocab ~size:3 ~tuples:9 in
      let gaifman_w =
        (snd (Treewidth.Td_solver.solve_with_stats a b)).Treewidth.Td_solver.width
      in
      let a_gaif, t_gaif = Util.time ~repeat:1 (fun () -> Treewidth.Td_solver.exists a b) in
      let (a_inc, inc_stats), t_inc =
        Util.time ~repeat:1 (fun () -> Treewidth.Incidence.solve_with_stats a b)
      in
      let a_mac, t_mac = Util.time ~repeat:1 (fun () -> Homomorphism.exists a b) in
      assert (a_gaif = (a_inc <> None) && a_gaif = a_mac);
      let full = Binarize.encode a and econ = Binarize.encode_economical a in
      rows :=
        [
          int arity;
          int gaifman_w;
          int inc_stats.Treewidth.Incidence.width;
          f2s t_gaif;
          f2s t_inc;
          f2s t_mac;
          Printf.sprintf "%d/%d" (Structure.total_tuples econ) (Structure.total_tuples full);
        ]
        :: !rows)
    [ 3; 4; 5; 6 ];
  Util.table
    ~columns:
      [ "arity"; "Gaifman w"; "incidence w"; "Gaifman DP"; "incidence DP"; "MAC";
        "binary(A) econ/full" ]
    (List.rev !rows);
  Util.note "paper: Gaifman treewidth is at least arity-1 (each fact is a clique),";
  Util.note "while incidence treewidth stays small.";
  (* The economical binary encoding pays off when elements occur in many
     facts: a star structure (one hub in every fact) has quadratically many
     coincidence pairs but a linear chain. *)
  let rows = ref [] in
  List.iter
    (fun facts ->
      let vocab = Vocabulary.create [ ("E", 2) ] in
      let star = ref (Structure.create vocab ~size:(facts + 1)) in
      for f = 1 to facts do
        star := Structure.add_tuple !star "E" [| 0; f |]
      done;
      let full = Binarize.encode !star and econ = Binarize.encode_economical !star in
      assert (
        Homomorphism.exists econ full
        (* the chain embeds in the closure *));
      rows :=
        [ int facts; int (Structure.total_tuples full); int (Structure.total_tuples econ) ]
        :: !rows)
    [ 8; 16; 32; 64 ];
  Util.note "";
  Util.note "economical vs full binary(A) on star structures (Lemma 5.5 remark):";
  Util.table
    ~columns:[ "facts"; "full encoding tuples"; "economical tuples" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A1 — ablations of internal design choices                             *)
(* ------------------------------------------------------------------ *)

let ablations () =
  Util.header "A1  Ablations: 2-SAT algorithms; elimination heuristics";
  (* SCC-based vs phase-propagation 2-SAT on random formulas. *)
  let rows = ref [] in
  List.iter
    (fun nvars ->
      let st = Random.State.make [| nvars |] in
      let clauses =
        List.init (2 * nvars) (fun _ ->
            let lit () =
              let v = Random.State.int st nvars in
              if Random.State.bool st then Schaefer.Cnf.pos v else Schaefer.Cnf.neg v
            in
            [ lit (); lit () ])
      in
      let f = Schaefer.Cnf.make ~nvars clauses in
      let r_scc, t_scc = Util.time ~repeat:1 (fun () -> Schaefer.Two_sat.solve f) in
      let r_phase, t_phase = Util.time ~repeat:1 (fun () -> Oracle.Two_sat_phase.solve f) in
      assert (Result.is_ok r_scc = (r_phase <> None));
      rows :=
        [ int nvars;
          (if Result.is_ok r_scc then "sat" else "unsat");
          f2s t_scc; f2s t_phase ]
        :: !rows)
    [ 1000; 4000; 16000 ];
  Util.note "2-SAT: Tarjan SCC vs the paper's phase propagation (both linear):";
  Util.table
    ~columns:[ "variables"; "answer"; "SCC"; "phase propagation" ]
    (List.rev !rows);
  (* Elimination heuristics. *)
  let rows = ref [] in
  List.iter
    (fun (seed, n, k) ->
      let s = Testkit.Workloads.random_partial_ktree ~seed ~n ~k ~keep:0.85 in
      let g =
        Treewidth.Graph.of_edges ~size:(Structure.size s) (Structure.gaifman_edges s)
      in
      let width heuristic =
        Treewidth.Tree_decomposition.width
          (Option.get (Treewidth.Elimination.decomposition ~heuristic g))
      in
      let w_fill = width `Min_fill and w_deg = width `Min_degree in
      rows := [ Printf.sprintf "partial %d-tree, n=%d" k n; int k; int w_fill; int w_deg ] :: !rows)
    [ (1, 40, 2); (2, 40, 3); (3, 60, 2); (4, 60, 3); (5, 80, 4) ];
  Util.note "";
  Util.note "elimination-order heuristics (true treewidth <= k):";
  Util.table
    ~columns:[ "graph"; "k"; "min-fill width"; "min-degree width" ]
    (List.rev !rows);
  (* Variable-ordering heuristic in the MAC search. *)
  let rows = ref [] in
  List.iter
    (fun m ->
      let a = Testkit.Workloads.clique (m + 1) and b = Testkit.Workloads.clique m in
      let (r_mrv, s_mrv), t_mrv =
        Util.time ~repeat:1 (fun () -> Homomorphism.find_with_stats ~ordering:`Mrv a b)
      in
      let (r_inp, s_inp), t_inp =
        Util.time ~repeat:1 (fun () -> Homomorphism.find_with_stats ~ordering:`Input a b)
      in
      assert (r_mrv = None && r_inp = None);
      rows :=
        [ Printf.sprintf "K%d -> K%d" (m + 1) m;
          int s_mrv.Homomorphism.nodes; f2s t_mrv;
          int s_inp.Homomorphism.nodes; f2s t_inp ]
        :: !rows)
    [ 5; 6; 7 ];
  Util.note "";
  Util.note "branching-variable heuristic in the MAC search:";
  Util.table
    ~columns:[ "instance"; "MRV nodes"; "MRV time"; "input-order nodes"; "input-order time" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E14 — extensions around containment: SPJ plans and the chase          *)
(* ------------------------------------------------------------------ *)

let e14 () =
  Util.header "E14 Extensions: SPJ algebra plans and containment under dependencies";
  (* SPJ plan evaluation vs direct homomorphism enumeration. *)
  let rows = ref [] in
  List.iter
    (fun len ->
      let query = Testkit.Workloads.chain_query len in
      let db = Testkit.Workloads.erdos_renyi ~seed:len ~n:40 ~p:0.07 in
      let a_alg, t_alg =
        Util.time ~repeat:1 (fun () -> Cq.Algebra.evaluate_query query db)
      in
      let a_hom, t_hom =
        Util.time ~repeat:1 (fun () -> Cq.Containment.evaluate query db)
      in
      let a_yan, t_yan = Util.time ~repeat:1 (fun () -> Cq.Acyclic.evaluate query db) in
      assert (a_alg = a_hom && a_hom = a_yan);
      rows :=
        [ int len; int (List.length a_alg); f2s t_alg; f2s t_yan; f2s t_hom ] :: !rows)
    [ 2; 4; 6 ];
  Util.note "chain-query evaluation on G(40, 0.07): three equivalent engines";
  Util.table
    ~columns:
      [ "chain length"; "answers"; "SPJ plan"; "Yannakakis"; "hom enumeration" ]
    (List.rev !rows);
  (* The chase. *)
  let fk =
    Cq.Chase.tgd ~body:[ ("Emp", [ "E1" ]) ] ~head:[ ("Works", [ "E1"; "D" ]) ]
  in
  let trans =
    Cq.Chase.tgd
      ~body:[ ("E", [ "X"; "Y" ]); ("E", [ "Y"; "Z" ]) ]
      ~head:[ ("E", [ "X"; "Z" ]) ]
  in
  let q1 = Cq.Parser.parse "Q(X, Z) :- E(X, Y), E(Y, Z)." in
  let q2 = Cq.Parser.parse "Q(X, Z) :- E(X, Z)." in
  let plain, t_plain = Util.time ~repeat:1 (fun () -> Cq.Containment.contained q1 q2) in
  let under, t_chase =
    Util.time ~repeat:1 (fun () -> Cq.Chase.contained_under [ trans ] q1 q2)
  in
  assert ((not plain) && under);
  Util.note "";
  Util.note "containment under dependencies (the chase):";
  Util.table
    ~columns:[ "setting"; "Q1 <= Q2"; "time" ]
    [
      [ "no dependencies"; string_of_bool plain; f2s t_plain ];
      [ "transitivity TGD"; string_of_bool under; f2s t_chase ];
    ];
  Util.note "weak acyclicity guard: fk %b, transitivity %b, E(x,y)->E(y,z) %b"
    (Cq.Chase.is_weakly_acyclic [ fk ])
    (Cq.Chase.is_weakly_acyclic [ trans ])
    (Cq.Chase.is_weakly_acyclic
       [ Cq.Chase.tgd ~body:[ ("E", [ "X"; "Y" ]) ] ~head:[ ("E", [ "Y"; "Z" ]) ] ])

(* Scale-free regression guard: keys in the (optional) baseline file named
   by CQCSP_PERF_BASELINE are "key=value" lines; a metric regressing past
   2x its checked-in value fails the run.  Speedups guard downwards
   (measured must stay above half the baseline), costs guard upwards. *)
let perf_guard ~experiment metrics =
  match Sys.getenv_opt "CQCSP_PERF_BASELINE" with
  | None | Some "" -> Util.note "no CQCSP_PERF_BASELINE set; regression guard skipped."
  | Some file ->
    let baseline = Hashtbl.create 8 in
    let ic = open_in file in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line '=' with
           | Some i ->
             Hashtbl.replace baseline
               (String.sub line 0 i)
               (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> ()
       done
     with End_of_file -> close_in ic);
    List.iter
      (fun (key, measured, higher_is_better) ->
        match Hashtbl.find_opt baseline key with
        | None -> Util.note "baseline has no key %s; skipped." key
        | Some base ->
          let ok =
            if higher_is_better then measured >= base /. 2.0
            else measured <= base *. 2.0
          in
          Util.note "%s: measured %.3g, baseline %.3g -> %s" key measured base
            (if ok then "ok" else "REGRESSION");
          if not ok then
            failwith
              (Printf.sprintf
                 "%s perf regression on %s: measured %.3g vs baseline %.3g (>2x)"
                 experiment key measured base))
      metrics

(* Every timing a guard key reads is the median of this many runs, so
   one slow phase of a shared host moves a key no more than it moves a
   single run among nine. *)
let guard_repeat = 9

(* ------------------------------------------------------------------ *)
(* BENCH_*.json rows                                                    *)
(* ------------------------------------------------------------------ *)

module Json = Wire.Json

(* A measured float at 7 significant digits: timing noise is larger
   than the digits dropped, and the rows stay short. *)
let num f = Json.Float (float_of_string (Printf.sprintf "%.7g" f))

(* The first line a shell command prints, when it exits 0. *)
let command_line cmd =
  let ic = Unix.open_process_in cmd in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, line -> Ok line
  | _ -> Error ()

(* Every row records the revision ([null] outside a git checkout) and
   the core count it was measured at.  A revision whose measured code
   (lib, bin, bench) has uncommitted changes ends in [-dirty]; the
   BENCH_*.json files a run rewrites are not measured code. *)
let stamp =
  lazy
    (let rev =
       match command_line "git rev-parse --short HEAD 2>/dev/null" with
       | Ok (Some rev) ->
         let dirty =
           command_line
             "git status --porcelain --untracked-files=no -- :/lib :/bin :/bench 2>/dev/null"
         in
         Json.String (if dirty = Ok None then rev else rev ^ "-dirty")
       | _ -> Json.Null
     in
     [ ("rev", rev); ("cores", Json.Int (Domain.recommended_domain_count ())) ])

let row fields = Json.Obj (fields @ Lazy.force stamp)

(* A JSON list with one row per line, so a rerun's diff names the rows
   it changed. *)
let write_rows path rows =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[\n";
      output_string oc (String.concat ",\n" (List.map Json.to_string rows));
      output_string oc "\n]\n")

(* BENCH_perf.json accumulates the rows of E16-E20, keyed by (family, k,
   size): a row replaces the stored row with its key, so reruns update in
   place and `main e16 e17` in either order yields one artifact.  A file
   that does not parse as a list fails the experiment and is left as it
   is. *)
let append_perf_json rows =
  let path = "BENCH_perf.json" in
  let stored =
    if not (Sys.file_exists path) then []
    else
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Json.List stored -> stored
      | _ -> failwith (path ^ " is not a JSON list; not overwritten")
      | exception Json.Parse_error msg ->
        failwith (Printf.sprintf "%s: %s; not overwritten" path msg)
  in
  let key r = List.map (fun field -> Json.member field r) [ "family"; "k"; "size" ] in
  let fresh = List.map key rows in
  write_rows path (List.filter (fun r -> not (List.mem (key r) fresh)) stored @ rows)

(* ------------------------------------------------------------------ *)
(* E15 — certified verdicts: construction and checking overhead          *)
(* ------------------------------------------------------------------ *)

(* One representative refuted instance per dispatcher route, each with the
   raw (uncertified) deciding algorithm for comparison.  The certified
   column is the full [Core.Solver.solve] (dispatch + decision + building
   the certificate); the check column is the trusted validator alone. *)

let horn_chain n =
  (* One(x0), x0 -> x1 -> ... -> xn, Zero(xn): a unit-propagation chain.
     The ternary Horn relation {t | not t0 or not t1 or t2}, used once,
     keeps the target out of the bijunctive class, so it is solved as
     Horn. *)
  let vocab = Vocabulary.create [ ("One", 1); ("Zero", 1); ("Imp", 2); ("And", 3) ] in
  let b =
    Structure.of_relations vocab ~size:2
      [ ("One", [ [| 1 |] ]); ("Zero", [ [| 0 |] ]);
        ("Imp", [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 1 |] ]);
        ("And",
         List.filter
           (fun t -> t <> [| 1; 1; 0 |])
           (List.init 8 (fun m -> [| m land 1; (m lsr 1) land 1; (m lsr 2) land 1 |]))) ]
  in
  let a = ref (Structure.create vocab ~size:(n + 1)) in
  a := Structure.add_tuple !a "One" [| 0 |];
  a := Structure.add_tuple !a "And" [| 0; 1; 2 |];
  for i = 0 to n - 1 do
    a := Structure.add_tuple !a "Imp" [| i; i + 1 |]
  done;
  a := Structure.add_tuple !a "Zero" [| n |];
  (!a, b)

let affine_pairs n =
  (* n disjoint copies of an odd-parity/even-parity clash over an
     affine-only target. *)
  let vocab = Vocabulary.create [ ("R", 3); ("S", 3) ] in
  let b =
    Structure.of_relations vocab ~size:2
      [ ("R", [ [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |]; [| 1; 1; 1 |] ]);
        ("S", [ [| 0; 0; 0 |]; [| 1; 1; 0 |]; [| 1; 0; 1 |]; [| 0; 1; 1 |] ]) ]
  in
  let a = ref (Structure.create vocab ~size:(3 * n)) in
  for i = 0 to n - 1 do
    a := Structure.add_tuple !a "R" [| (3 * i); (3 * i) + 1; (3 * i) + 2 |];
    a := Structure.add_tuple !a "S" [| (3 * i); (3 * i) + 1; (3 * i) + 2 |]
  done;
  (!a, b)

(* Vocabulary {E/2, F/1}: keeps the target non-Boolean, non-graph and
   larger than the Booleanization cap, so the source-side routes fire. *)
let marked_vocab = Vocabulary.create [ ("E", 2); ("F", 1) ]

let marked_triangle =
  Structure.of_relations marked_vocab ~size:5
    [ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ]); ("F", [ [| 3 |] ]) ]

let marked_cycle n =
  let a = ref (Structure.create marked_vocab ~size:n) in
  for i = 0 to n - 1 do
    a := Structure.add_tuple !a "E" [| i; (i + 1) mod n |];
    a := Structure.add_tuple !a "F" [| i |]
  done;
  !a

let marked_clique n =
  let a = ref (Structure.create marked_vocab ~size:n) in
  for i = 0 to n - 1 do
    a := Structure.add_tuple !a "F" [| i |];
    for j = 0 to n - 1 do
      if i <> j then a := Structure.add_tuple !a "E" [| i; j |]
    done
  done;
  !a

let certify () =
  Util.header "E15 Certified verdicts: construction and checking overhead";
  (* Every column is the median of [repeat] runs. *)
  let repeat = guard_repeat in
  let cases =
    [
      (let a, b = horn_chain 400 in
       ("schaefer-direct", a, b, fun () ->
           ignore (Schaefer.Uniform.solve a b)));
      (let a, b = affine_pairs 120 in
       ("schaefer-direct", a, b, fun () ->
           ignore (Schaefer.Uniform.solve a b)));
      (let a = Testkit.Workloads.undirected_cycle 401 and b = Testkit.Workloads.k2 in
       ("schaefer-direct", a, b, fun () ->
           ignore (Schaefer.Uniform.solve a b)));
      (let a = Testkit.Workloads.undirected_cycle 401
       and b = Testkit.Workloads.complete_bipartite 2 2 in
       ("hell-nesetril", a, b, fun () -> ignore (Core.Graph_dichotomy.solve a b)));
      (let a = Testkit.Workloads.directed_cycle 402
       and b = Testkit.Workloads.directed_cycle 4 in
       ("booleanized", a, b, fun () -> ignore (Schaefer.Booleanize.solve a b)));
      (let a = Testkit.Workloads.path 200 and b = Testkit.Workloads.path 50 in
       ("acyclic-yannakakis", a, b, fun () ->
           ignore (Treewidth.Hypergraph.solve_acyclic a b)));
      (let a = marked_cycle 60 and b = marked_triangle in
       ("treewidth-dp", a, b, fun () -> ignore (Treewidth.Td_solver.solve a b)));
      (let a = marked_clique 5 and b = marked_triangle in
       ("2-consistency", a, b, fun () ->
           ignore (Pebble.Game.spoiler_wins ~k:2 a b)));
      (let a = Testkit.Workloads.clique 5 and b = Testkit.Workloads.undirected_cycle 7 in
       ("backtracking", a, b, fun () -> ignore (Homomorphism.find a b)));
    ]
  in
  let rows = ref [] and entries = ref [] and backtracking_overhead = ref nan in
  List.iter
    (fun (expected, a, b, raw) ->
      let r, t_solve = Util.time ~repeat (fun () -> Core.Solver.solve a b) in
      let cert =
        match r.Core.Solver.verdict with
        | Core.Solver.Unsat c -> c
        | _ -> failwith ("expected unsat on the " ^ expected ^ " case")
      in
      assert (
        (* The representative instance must actually land on its route. *)
        String.length (Core.Solver.route_name r.Core.Solver.route)
        >= String.length expected
        && String.sub (Core.Solver.route_name r.Core.Solver.route) 0
             (String.length expected)
           = expected);
      let (), t_raw = Util.time ~repeat raw in
      let ok, t_check = Util.time ~repeat (fun () -> Certificate.check a b cert) in
      if expected = "backtracking" then backtracking_overhead := t_solve /. t_raw;
      assert ok;
      let form = Certificate.describe cert and size = Certificate.size cert in
      rows :=
        [ expected; form; int size; f2s t_raw; f2s t_solve; f2s t_check;
          Printf.sprintf "%.2fx" (t_solve /. t_raw) ]
        :: !rows;
      entries :=
        row
          Json.[
            ("route", String expected); ("certificate", String form);
            ("size", Int size); ("raw_route_s", num t_raw);
            ("certified_solve_s", num t_solve); ("check_s", num t_check);
          ]
        :: !entries)
    cases;
  (* The positive side: a witness is its own certificate. *)
  let a = Testkit.Workloads.path 120 and b = Testkit.Workloads.clique 3 in
  let r, t_solve = Util.time ~repeat (fun () -> Core.Solver.solve a b) in
  (match r.Core.Solver.verdict with
  | Core.Solver.Sat h ->
    let ok, t_check =
      Util.time ~repeat (fun () -> Certificate.check a b (Certificate.Witness h))
    in
    assert ok;
    rows := [ "any (sat)"; "witness"; int (Array.length h); "-"; f2s t_solve;
              f2s t_check; "-" ] :: !rows;
    entries :=
      row
        Json.[
          ("route", String "sat-witness"); ("certificate", String "witness");
          ("size", Int (Array.length h)); ("raw_route_s", Null);
          ("certified_solve_s", num t_solve); ("check_s", num t_check);
        ]
      :: !entries
  | _ -> failwith "expected sat on the witness case");
  Util.table
    ~columns:
      [ "route"; "certificate"; "size"; "raw route"; "certified solve"; "check";
        "overhead" ]
    (List.rev !rows);
  write_rows "BENCH_certify.json" (List.rev !entries);
  Util.note "wrote BENCH_certify.json (certificate overhead per route, medians of %d)."
    repeat;
  Util.note "the certified solve includes dispatch, the decision, and building the";
  Util.note "certificate; the trusted check re-derives nothing from solver state.";
  perf_guard ~experiment:"E15"
    [ ("certify_backtracking_overhead", !backtracking_overhead, false) ]

(* ------------------------------------------------------------------ *)
(* E16: indexed propagation and the Theorem 3.4 O(||A||*||B||) bound    *)
(* ------------------------------------------------------------------ *)

(* Establish arc consistency from scratch with the compact-table engine;
   the context build (live bitsets and support masks) is part of the
   measured cost. *)
let establish_time ?repeat a b =
  Util.time ?repeat (fun () ->
      let ctx = Arc_consistency.create a b in
      Arc_consistency.establish ctx)

(* Deep-cascade establish workloads.  The target is a transitive tournament
   (resp. a path) with a self-loop "floor" at vertex 0: out-paths of any
   length exist through the floor, so the instance is satisfiable and both
   engines must reach the full arc-consistent fixpoint (no early-exit
   wipeout asymmetry).  The fixpoint caps the image of source vertex [i] at
   [max (0, s - n + i)], and propagation reaches it one value per variable
   per wave over ~s waves -- so the naive engine re-scans the whole target
   relation Theta(s) times per atom, while the compact table kills each
   tuple of an atom once and rechecks only the values it carried. *)
let dense_floor s = Structure.add_tuple (Testkit.Workloads.staircase_dag s) "E" [| 0; 0 |]

let sparse_floor s = Structure.add_tuple (Testkit.Workloads.path s) "E" [| 0; 0 |]

let e16 () =
  Util.header
    "E16 Indexed propagation: compact-table filtering vs naive revise (Thm 3.4)";
  let json = ref [] in
  let record family s a b naive ac4 =
    json :=
      row
        Json.[
          ("family", String family); ("size", Int s);
          ("norm_a", Int (Structure.norm a)); ("norm_b", Int (Structure.norm b));
          ("naive_s", Option.fold ~none:Null ~some:num naive);
          ("ac4_s", num ac4);
        ]
      :: !json
  in
  let measure family source target sizes =
    List.map
      (fun s ->
        let a = source s in
        let b = target s in
        (* The naive baseline (the rescan-and-revise oracle) is slow on
           the large sizes; one timing of it suffices for a reference
           ratio, except at s = 64, where the guarded speedup reads it. *)
        let rn, tn =
          Util.time
            ~repeat:(if s = 64 then guard_repeat else 1)
            (fun () -> Oracle.Arc.closure ~restrict:(fun _ _ -> true) a b)
        in
        let r4, t4 = establish_time ~repeat:guard_repeat a b in
        assert (rn <> None && r4);
        record family s a b (Some tn) t4;
        ( (s, Structure.norm a * Structure.norm b, tn, t4),
          [ family; int s; int (Structure.norm a); int (Structure.norm b);
            f2s tn; f2s t4; Printf.sprintf "%.1fx" (tn /. t4) ] ))
      sizes
  in
  (* Family 1: dense target (s(s-1)/2 + 1 tuples). *)
  let dense =
    measure "dense-floor" (fun s -> Testkit.Workloads.path (2 * s)) dense_floor
      [ 16; 24; 32; 48; 64; 96 ]
  in
  (* Family 2: sparse target (||B|| linear in s), same cascade shape. *)
  let sparse =
    measure "sparse-floor" (fun s -> Testkit.Workloads.path (4 * s)) sparse_floor
      [ 32; 64; 128 ]
  in
  Util.table
    ~columns:[ "family"; "s"; "||A||"; "||B||"; "naive"; "table"; "speedup" ]
    (List.map snd (dense @ sparse));
  let dense_speedup =
    match List.find (fun ((s, _, _, _), _) -> s = 64) dense with
    | (_, _, tn, t4), _ -> tn /. t4
  in
  Util.note "dense-floor speedup at s=64: %.1fx (acceptance floor: 5x)." dense_speedup;
  assert (dense_speedup >= 5.0);
  (* Scaling: establish time against the work product ||A||*||B||.  An
     exponent near 1 is the Theorem 3.4 bound; the naive engine fitted the
     same way sits well above it. *)
  let series_ac4 = List.map (fun ((_, w, _, t4), _) -> (w, t4)) dense in
  let expo_ac4 = Util.fitted_exponent series_ac4 in
  let expo_naive =
    Util.fitted_exponent (List.map (fun ((_, w, tn, _), _) -> (w, tn)) dense)
  in
  Util.note "establish time ~ (||A||*||B||)^e: e = %.2f (table), %.2f (naive)."
    expo_ac4 expo_naive;
  assert (expo_ac4 <= 1.35);
  (* Family 3: Yannakakis on a path source into the dense tournament (a
     homomorphism exists: the tournament contains a Hamiltonian path).
     The hash semijoins keep the route linear in the candidate lists. *)
  let yk_sizes = [ 8; 12; 16; 24; 32; 48 ] in
  let yk_series =
    List.map
      (fun s ->
        let a = Testkit.Workloads.path s in
        let b = Testkit.Workloads.staircase_dag s in
        let h, t =
          Util.time ~repeat:guard_repeat (fun () -> Treewidth.Hypergraph.solve_acyclic a b)
        in
        (match h with
        | Some h -> assert (Homomorphism.is_homomorphism a b h)
        | None -> assert false);
        record "yannakakis" s a b None t;
        (Structure.norm a * Structure.norm b, t))
      yk_sizes
  in
  let expo_yk = Util.fitted_exponent yk_series in
  Util.note "yannakakis time ~ (||A||*||B||)^e: e = %.2f." expo_yk;
  assert (expo_yk <= 1.35);
  (* Deadline polling on the tick hot path: the strided clock turns the
     per-256-ticks gettimeofday poll into a calibrated ~2ms cadence, so
     real clock reads stay orders of magnitude below the tick count.
     Measured with the telemetry timers; the scale-free guard metric is
     the deadline-vs-unlimited per-tick cost ratio. *)
  let ticks = 2_000_000 in
  let tick_loop b = for _ = 1 to ticks do Budget.tick b done in
  let sink, _drain = Telemetry.Sink.memory () in
  Telemetry.reset ();
  Telemetry.set_sink (Some sink);
  let (), t_plain =
    Util.time ~repeat:guard_repeat (fun () ->
        Telemetry.time "budget.tick_unlimited" (fun () ->
            tick_loop (Budget.create ())))
  in
  Budget.reset_clock_stats ();
  let (), t_deadline =
    Util.time ~repeat:guard_repeat (fun () ->
        Telemetry.time "budget.tick_deadline" (fun () ->
            tick_loop (Budget.create ~timeout:3600.0 ())))
  in
  let reads = Budget.clock_reads () in
  let timers = Telemetry.timer_totals () in
  Telemetry.set_sink None;
  Telemetry.reset ();
  let tick_ratio = t_deadline /. t_plain in
  Util.note
    "deadline polling: %.1f ns/tick unlimited, %.1f ns/tick with a deadline \
     (%.2fx); %d clock reads for %d ticks (1 per %d)."
    (t_plain *. 1e9 /. float_of_int ticks)
    (t_deadline *. 1e9 /. float_of_int ticks)
    tick_ratio reads (guard_repeat * ticks)
    (guard_repeat * ticks / max 1 reads);
  List.iter
    (fun (name, (seconds, count)) ->
      Util.note "telemetry timer %s: %s over %d runs." name (f2s seconds) count)
    timers;
  assert (reads < guard_repeat * ticks / 64);
  json :=
    row
      Json.[
        ("family", String "deadline-polling"); ("size", Int ticks);
        ("plain_s", num t_plain); ("deadline_s", num t_deadline);
        ("tick_ratio", num tick_ratio); ("clock_reads", Int reads);
      ]
    :: !json;
  append_perf_json (List.rev !json);
  Util.note
    "merged E16 rows into BENCH_perf.json (perf trajectory seed for the Thm \
     3.4 routes).";
  (* Scale-free metrics for the CI guard: a speedup ratio and
     ns-per-unit-of-work costs, none of which depend on absolute machine
     speed as strongly as raw seconds do. *)
  let ns_per_unit series =
    match List.rev series with (w, t) :: _ -> t *. 1e9 /. float_of_int w | [] -> nan
  in
  perf_guard ~experiment:"E16"
    [
      ("dense_speedup_64", dense_speedup, true);
      ("dense_ac4_ns_per_unit", ns_per_unit series_ac4, false);
      ("yannakakis_ns_per_unit", ns_per_unit yk_series, false);
      ("deadline_tick_overhead", tick_ratio, false);
    ]

(* ------------------------------------------------------------------ *)
(* E17: integer-encoded pebble engine and indexed Datalog joins         *)
(* ------------------------------------------------------------------ *)

let e17 () =
  Util.header
    "E17 Integer-encoded k-pebble game: support counters vs delete-and-rescan";
  let json = ref [] in
  let record family ~k s a b naive counting (stats : Pebble.Game.stats) =
    json :=
      row
        Json.[
          ("family", String family); ("k", Int k); ("size", Int s);
          ("norm_a", Int (Structure.norm a)); ("norm_b", Int (Structure.norm b));
          ("naive_s", Option.fold ~none:Null ~some:num naive);
          ("counting_s", num counting);
          ("configs_ranked", Int stats.Pebble.Game.configs_ranked);
          ("supports_built", Int stats.Pebble.Game.supports_built);
          ("deaths_propagated", Int stats.Pebble.Game.deaths_propagated);
        ]
      :: !json
  in
  let measure family ~k source target sizes =
    List.map
      (fun s ->
        let a = source s and b = target s in
        (* The naive engine (the list-based oracle) dominates the large
           sizes; one timing of it suffices for a reference ratio, except
           at the largest, where the guarded speedup reads it. *)
        let (fn, _), tn =
          Util.time
            ~repeat:(if s = List.fold_left max 0 sizes then guard_repeat else 1)
            (fun () -> Oracle.Pebble.family ~budget:Budget.unlimited ~k a b)
        in
        let outcome, tc =
          Util.time ~repeat:guard_repeat (fun () -> Pebble.Game.run ~k a b)
        in
        let { Pebble.Game.family = fc; stats; _ } = Option.get outcome in
        (* Differential, outside the timed closures: the winning family is
           the unique greatest fixpoint, so the engines must agree
           configuration for configuration. *)
        assert (List.sort compare fn = List.sort compare (Pebble.Game.configs fc));
        record family ~k s a b (Some tn) tc stats;
        ( (s, Structure.norm a * Structure.norm b, tn, tc),
          [ family; int k; int s; int (Structure.norm a);
            int (Structure.norm b); f2s tn; f2s tc;
            Printf.sprintf "%.1fx" (tn /. tc) ] ))
      sizes
  in
  (* Family 1 (k=2): the E16 deep-cascade shape — a long path into the
     dense staircase tournament with a floor loop, so the fixpoint is
     reached wave by wave and both engines do their worst-case pruning. *)
  let cascade =
    measure "cascade-k2" ~k:2
      (fun s -> Testkit.Workloads.path (2 * s))
      dense_floor [ 4; 6; 8; 10; 12 ]
  in
  (* Family 2 (k=3): odd cycles vs K2 — the Spoiler wins (no 2-colouring),
     exercising the death-propagation worklist all the way to the empty
     configuration. *)
  let odd =
    measure "odd-cycle-k3" ~k:3
      (fun s -> Testkit.Workloads.undirected_cycle ((2 * s) + 1))
      (fun _ -> Testkit.Workloads.k2)
      [ 2; 3; 4; 5 ]
  in
  Util.table
    ~columns:
      [ "family"; "k"; "s"; "||A||"; "||B||"; "naive"; "counting"; "speedup" ]
    (List.map snd (cascade @ odd));
  let largest_speedup =
    match List.rev cascade with
    | ((_, _, tn, tc), _) :: _ -> tn /. tc
    | [] -> nan
  in
  Util.note "cascade-k2 speedup at the largest size: %.1fx (acceptance floor: 10x)."
    largest_speedup;
  (* Wall-clock-derived quantities are noisy on loaded runners, so the
     acceptance floor and the exponent comparison warn here; the failing
     guard is perf_guard below, which compares scale-free metrics against
     the checked-in baseline ratios. *)
  if largest_speedup < 10.0 then
    Util.note
      "WARNING: cascade-k2 speedup %.1fx is below the 10x acceptance floor \
       (timing noise, or a real regression — see the perf_guard verdict)."
      largest_speedup;
  (* Scaling against the work product ||A||*||B|| at fixed k: the counting
     engine's fitted exponent must not exceed the naive engine's. *)
  let counting_series =
    List.map (fun ((_, w, _, tc), _) -> (w, tc)) cascade
  in
  let expo_counting = Util.fitted_exponent counting_series in
  let expo_naive =
    Util.fitted_exponent (List.map (fun ((_, w, tn, _), _) -> (w, tn)) cascade)
  in
  Util.note "pebble time ~ (||A||*||B||)^e: e = %.2f (counting), %.2f (naive)."
    expo_counting expo_naive;
  if expo_counting > expo_naive then
    Util.note
      "WARNING: counting exponent %.2f exceeds naive %.2f (timing noise, or \
       a real regression — see the perf_guard verdict)."
      expo_counting expo_naive;
  json :=
    row
      Json.[
        ("family", String "pebble-summary");
        ("largest_speedup", num largest_speedup);
        ("expo_counting", num expo_counting); ("expo_naive", num expo_naive);
      ]
    :: !json;
  (* Datalog with indexed joins: transitive closure of a path, semi-naive.
     The closure has exactly n(n-1)/2 facts, so ns per derived fact is the
     scale-free cost of the join machinery. *)
  let tc_program =
    Datalog.Program.make ~goal:"T"
      [
        Datalog.Program.rule
          (Datalog.Program.atom "T" [ "x"; "y" ])
          [ Datalog.Program.atom "E" [ "x"; "y" ] ];
        Datalog.Program.rule
          (Datalog.Program.atom "T" [ "x"; "z" ])
          [ Datalog.Program.atom "E" [ "x"; "y" ];
            Datalog.Program.atom "T" [ "y"; "z" ] ];
      ]
  in
  let tc_results =
    List.map
      (fun n ->
        let a = Testkit.Workloads.path n in
        let (_, stats), t =
          Util.time ~repeat:guard_repeat (fun () ->
              Datalog.Eval.fixpoint_with_stats tc_program a)
        in
        let derived = stats.Datalog.Eval.derived in
        assert (derived = n * (n - 1) / 2);
        json :=
          row
            Json.[
              ("family", String "datalog-tc"); ("size", Int n);
              ("norm_a", Int (Structure.norm a)); ("derived", Int derived);
              ("rounds", Int stats.Datalog.Eval.rounds); ("seminaive_s", num t);
            ]
          :: !json;
        ( (derived, t),
          [ "datalog-tc"; int n; int derived; int stats.Datalog.Eval.rounds;
            f2s t; Printf.sprintf "%.0f" (t *. 1e9 /. float_of_int derived) ] ))
      [ 32; 48; 64; 96 ]
  in
  Util.table
    ~columns:[ "family"; "n"; "derived"; "rounds"; "seminaive"; "ns/fact" ]
    (List.map snd tc_results);
  let tc_series = List.map fst tc_results in
  let expo_tc = Util.fitted_exponent tc_series in
  Util.note "seminaive TC time ~ derived^e: e = %.2f." expo_tc;
  append_perf_json (List.rev !json);
  Util.note "merged E17 rows into BENCH_perf.json.";
  let ns_per_unit series =
    match List.rev series with
    | (w, t) :: _ -> t *. 1e9 /. float_of_int w
    | [] -> nan
  in
  perf_guard ~experiment:"E17"
    [
      ("pebble_speedup_largest", largest_speedup, true);
      ("pebble_expo_counting", expo_counting, false);
      ("pebble_counting_ns_per_unit", ns_per_unit counting_series, false);
      ("datalog_tc_ns_per_derived", ns_per_unit tc_series, false);
    ]

(* ------------------------------------------------------------------ *)
(* E18 — telemetry overhead: disabled vs memory sink vs JSONL sink      *)
(* ------------------------------------------------------------------ *)

let e18 () =
  Util.header "E18 Telemetry overhead: disabled vs memory sink vs JSONL sink";
  let json = ref [] in
  (* Fixed mixed workload touching every instrumented layer: the full
     solver portfolio on an E16-style cascade (AC, treewidth, pebble,
     Schaefer classification all fire), a Spoiler win of the k=3 pebble
     game, and a semi-naive transitive closure.  The workload returns a
     structural fingerprint — verdicts, per-route attempts with their
     engine counters, family size, facts derived — that must be
     bit-identical in all three telemetry modes (no observer effect). *)
  let tc_program =
    Datalog.Program.make ~goal:"T"
      [
        Datalog.Program.rule
          (Datalog.Program.atom "T" [ "x"; "y" ])
          [ Datalog.Program.atom "E" [ "x"; "y" ] ];
        Datalog.Program.rule
          (Datalog.Program.atom "T" [ "x"; "z" ])
          [ Datalog.Program.atom "E" [ "x"; "y" ];
            Datalog.Program.atom "T" [ "y"; "z" ] ];
      ]
  in
  let workload () =
    let r1 = Core.Solver.solve (Testkit.Workloads.path 48) (dense_floor 24) in
    let family =
      Pebble.Game.configs
        (Option.get
           (Pebble.Game.run ~k:3 (Testkit.Workloads.undirected_cycle 9) Testkit.Workloads.k2))
          .family
    in
    let arc =
      let ctx =
        Arc_consistency.create (Testkit.Workloads.path 96)
          (dense_floor 32)
      in
      Arc_consistency.establish ctx
    in
    let _, stats =
      Datalog.Eval.fixpoint_with_stats tc_program (Testkit.Workloads.path 64)
    in
    ( Core.Solver.verdict_name r1.Core.Solver.verdict,
      List.map
        (fun (at : Core.Solver.attempt) ->
          ( Core.Solver.route_name at.Core.Solver.route,
            at.Core.Solver.nodes,
            Core.Solver.outcome_name at.Core.Solver.outcome,
            at.Core.Solver.counters ))
        r1.Core.Solver.attempts,
      List.length family,
      arc,
      stats.Datalog.Eval.derived )
  in
  let with_sink sink f =
    Telemetry.reset ();
    Telemetry.set_sink sink;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_sink None;
        Telemetry.reset ())
      f
  in
  (* Mode 1: telemetry compiled in but disabled — every instrumentation
     site is one [enabled]-branch.  This is the deployment default, so the
     two ratios below bound what users pay for the hooks existing at all.
     Mode 2: memory sink — records and counters accumulate in RAM; the
     bench then consumes the very counters the engines emitted instead of
     re-deriving its own operation counts.  Mode 3: JSONL sink — every
     record is rendered and written to disk.  The modes take turns, one
     run each per round, so a slow phase of the host lands on all three
     alike; each column is the median of [guard_repeat] rounds. *)
  let mem_sink, mem_drain = Telemetry.Sink.memory () in
  let trace_path = Filename.temp_file "cqcsp-e18" ".jsonl" in
  let oc = open_out trace_path in
  let run sink = with_sink sink (fun () -> Util.time_once workload) in
  let rounds =
    List.init guard_repeat (fun _ ->
        let off = run None in
        let mem = run (Some mem_sink) in
        let jsonl =
          with_sink
            (Some (Telemetry.Sink.jsonl oc))
            (fun () ->
              let timed = Util.time_once workload in
              Telemetry.flush ();
              timed)
        in
        (off, mem, jsonl))
  in
  let median pick =
    let sorted = List.sort compare (List.map (fun r -> snd (pick r)) rounds) in
    (fst (pick (List.hd rounds)), List.nth sorted (List.length sorted / 2))
  in
  let v_off, t_off = median (fun (off, _, _) -> off) in
  let v_mem, t_mem = median (fun (_, mem, _) -> mem) in
  let v_jsonl, t_jsonl = median (fun (_, _, jsonl) -> jsonl) in
  (* One clean run for per-run counter totals. *)
  let totals =
    with_sink (Some mem_sink) (fun () ->
        ignore (workload ());
        Telemetry.counter_totals ())
  in
  let mem_records = List.length (mem_drain ()) in
  close_out oc;
  let trace_bytes =
    let ic = open_in_bin trace_path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Sys.remove trace_path;
  (* Observer-effect differential: verdicts, attempts (with counters),
     pebble family and derived-fact counts agree across all modes. *)
  assert (v_off = v_mem);
  assert (v_off = v_jsonl);
  let mem_ratio = t_mem /. t_off and jsonl_ratio = t_jsonl /. t_off in
  Util.table
    ~columns:[ "mode"; "median"; "ratio"; "emitted" ]
    [
      [ "disabled"; f2s t_off; "1.00x"; "-" ];
      [ "memory"; f2s t_mem; Printf.sprintf "%.2fx" mem_ratio;
        Printf.sprintf "%d records" mem_records ];
      [ "jsonl"; f2s t_jsonl; Printf.sprintf "%.2fx" jsonl_ratio;
        Printf.sprintf "%d bytes" trace_bytes ];
    ];
  Util.note
    "telemetry overhead on the mixed workload: %.2fx memory-sinked, %.2fx \
     JSONL-sinked (target < 1.05x; guarded < 2x of baseline)."
    mem_ratio jsonl_ratio;
  (* The same counters the engines emitted, consumed here as the bench's
     operation counts (one clean run). *)
  Util.table
    ~columns:[ "counter"; "per-run" ]
    (List.map (fun (name, n) -> [ name; int n ]) totals);
  let total name =
    match List.assoc_opt name totals with Some n -> n | None -> 0
  in
  assert (total "datalog.derived" >= 64 * 63 / 2);
  assert (total "ac.establishes" > 0);
  assert (total "pebble.initial_configs" > 0);
  json :=
    row
      Json.[
        ("family", String "telemetry-overhead"); ("off_s", num t_off);
        ("memory_s", num t_mem); ("jsonl_s", num t_jsonl);
        ("memory_ratio", num mem_ratio); ("jsonl_ratio", num jsonl_ratio);
        ("memory_records", Int mem_records); ("jsonl_bytes", Int trace_bytes);
        ("ac_kills", Int (total "ac.kills"));
        ("datalog_derived", Int (total "datalog.derived"));
        ("pebble_supports_built", Int (total "pebble.supports_built"));
      ]
    :: !json;
  append_perf_json (List.rev !json);
  Util.note "merged E18 rows into BENCH_perf.json.";
  perf_guard ~experiment:"E18"
    [
      ("telemetry_overhead", mem_ratio, false);
      ("telemetry_jsonl_overhead", jsonl_ratio, false);
    ]

(* ------------------------------------------------------------------ *)
(* E19: structural preprocessing — certified shrinking ahead of the     *)
(* portfolio                                                            *)
(* ------------------------------------------------------------------ *)

(* Blown-up undirected odd cycle: [m] classes around a cycle, each class
   holding [1 + copies] duplicate vertices adjacent to every vertex of
   the neighbouring classes.  The duplicates are dominated (every tuple
   through a copy survives substituting its class representative), so
   the whole blow-up folds back to C_m — but the raw structure has
   treewidth ~2*copies+1, pushing the unpreprocessed portfolio off the
   cheap decomposition route and into search.  Redundancy ratio =
   (copies+1) : 1.  With [tail], a path of that many extra vertices
   hangs off the first cycle vertex; it takes the lowest indices, far
   end first, and folds onto the cycle as well. *)
let blown_cycle ?(tail = 0) m copies =
  let cls = copies + 1 in
  let edges = ref [] in
  let add u v = edges := [| u; v |] :: [| v; u |] :: !edges in
  for i = 0 to m - 1 do
    let j = (i + 1) mod m in
    for c = 0 to copies do
      for d = 0 to copies do
        add (tail + (i * cls) + c) (tail + (j * cls) + d)
      done
    done
  done;
  for p = 0 to tail - 1 do
    add p (p + 1)
  done;
  Structure.of_relations Testkit.Workloads.graph_vocab
    ~size:(tail + (m * cls))
    [ ("E", !edges) ]

(* A random bipartite graph: each of the [n] vertices draws a side, and
   each pair across the sides is an edge with probability [p]. *)
let bipartite_gnp ~seed n p =
  let st = Random.State.make [| seed |] in
  let side = Array.init n (fun _ -> Random.State.int st 2) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if side.(u) <> side.(v) && Random.State.float st 1.0 < p then
        edges := [| u; v |] :: [| v; u |] :: !edges
    done
  done;
  Structure.of_relations Testkit.Workloads.graph_vocab ~size:n [ ("E", !edges) ]

(* A random tree: vertex [i > 0] hangs off a uniform earlier vertex. *)
let random_tree ~seed n =
  let st = Random.State.make [| seed |] in
  let edges =
    List.concat_map
      (fun i ->
        let p = Random.State.int st i in
        [ [| i; p |]; [| p; i |] ])
      (List.init (n - 1) (fun i -> i + 1))
  in
  Structure.of_relations Testkit.Workloads.graph_vocab ~size:n [ ("E", edges) ]

let e19 () =
  Util.header
    "E19 Structural preprocessing: certified shrinking ahead of the portfolio";
  let json = ref [] in
  let c7 = Testkit.Workloads.undirected_cycle 7 in
  let solve_time ~preprocess a b =
    Util.time ~repeat:guard_repeat (fun () ->
        (Core.Solver.solve ~preprocess a b).Core.Solver.verdict)
  in
  let shrunk_size a =
    let src = Preprocess.shrink_source a in
    src.Preprocess.stats.Preprocess.shrunk_elements
  in
  let verdict = Core.Solver.verdict_name in
  let record family ~k a _b vp tp vr tr =
    (* Differential embedded in the bench: preprocessing must never
       change the verdict it is accelerating. *)
    assert (verdict vp = verdict vr);
    let shrunk = shrunk_size a in
    json :=
      row
        Json.[
          ("family", String family); ("k", Int k); ("size", Int (Structure.size a));
          ("shrunk", Int shrunk); ("verdict", String (verdict vp));
          ("pre_s", num tp); ("raw_s", num tr); ("speedup", num (tr /. tp));
        ]
      :: !json;
    [
      family; int k; int (Structure.size a); int shrunk; verdict vp; f2s tp;
      f2s tr; Printf.sprintf "%.2fx" (tr /. tp);
    ]
  in
  (* Family 1: padded core.  A blown-up C5 (3 copies per class) with a
     pendant path of [tail] vertices against C7 is unsat (odd girth), and
     the core is the bare C5.  Raw, the blow-up puts the treewidth past
     the cap, and MAC, which learns nothing from a failure, walks the
     path first (lowest indices, two values per step) and meets the
     cycle's wipeout once per assignment of it, exponentially often in
     [tail].  The
     sweep widens the gap between that and the shrunk width-2 solve. *)
  let padded =
    List.map
      (fun tail ->
        let a = blown_cycle ~tail 5 3 in
        let vp, tp = solve_time ~preprocess:true a c7 in
        let vr, tr = solve_time ~preprocess:false a c7 in
        ((tail, tr /. tp), record "preprocess-shrink-padded" ~k:tail a c7 vp tp vr tr))
      [ 5; 9; 13 ]
  in
  (* Family 2: multi-component dedup.  j identical blown-C5 components:
     decomposition plus textual dedup leaves one part to solve, raw pays
     for all of them. *)
  let multi =
    List.map
      (fun j ->
        let piece = blown_cycle 5 1 in
        let a =
          List.fold_left
            (fun acc _ -> Structure.disjoint_union acc piece)
            piece
            (List.init (j - 1) Fun.id)
        in
        let vp, tp = solve_time ~preprocess:true a c7 in
        let vr, tr = solve_time ~preprocess:false a c7 in
        record "preprocess-shrink-multicomponent" ~k:j a c7 vp tp vr tr)
      [ 2; 4; 8 ]
  in
  (* Family 3: overhead on already-core instances.  C_m -> C_m is
     connected, fold-free and its own core, so the pipeline can only
     cost: the ratio is what every unshrinkable instance pays. *)
  let overhead =
    List.map
      (fun m ->
        let a = Testkit.Workloads.undirected_cycle m in
        let vp, tp = solve_time ~preprocess:true a a in
        let vr, tr = solve_time ~preprocess:false a a in
        ((m, tp /. tr), record "preprocess-overhead" ~k:m a a vp tp vr tr))
      [ 11; 21; 41 ]
  in
  (* Family 4: head routes.  A bipartite G(46, 0.1) into K2 and a random
     56-vertex tree into K3 are decided on the raw source ahead of the
     preprocessing boundary, so the shrink must add nothing: the ratio of
     the preprocessed to the raw solve is ~1.0 by construction.  Each
     timing covers a batch of solves, since one raw solve takes well
     under a millisecond. *)
  let batch = 20 in
  let head_time ~preprocess a b =
    let v, t =
      Util.time ~repeat:7 (fun () ->
          List.init batch (fun _ ->
              (Core.Solver.solve ~preprocess a b).Core.Solver.verdict)
          |> List.hd)
    in
    (v, t /. float_of_int batch)
  in
  let head =
    List.map
      (fun (a, b) ->
        let vp, tp = head_time ~preprocess:true a b in
        let vr, tr = head_time ~preprocess:false a b in
        let n = Structure.size a in
        (tp /. tr, record "preprocess-head" ~k:n a b vp tp vr tr))
      [
        (bipartite_gnp ~seed:46 46 0.1, Testkit.Workloads.k2);
        (random_tree ~seed:56 56, Testkit.Workloads.clique 3);
      ]
  in
  (* Family 5: pendant trees.  C5 with a random tree of n vertices
     hanging off it, into K3 (sat; no head route applies).  Every tree
     vertex folds onto the cycle, so the shrink does n folds; it must
     grow linearly in n, and the shrunk solve is the bare C5's.  The
     shrink alone is timed for the per-element guard. *)
  let k3 = Testkit.Workloads.clique 3 in
  let pendant =
    List.map
      (fun n ->
        let a = Testkit.Workloads.pendant_cycle ~seed:19 ~cycle:5 n in
        let vp, tp = solve_time ~preprocess:true a k3 in
        let vr, tr = solve_time ~preprocess:false a k3 in
        let _, ts =
          Util.time ~repeat:5 (fun () -> Preprocess.shrink_source a)
        in
        ((Structure.size a, ts), record "preprocess-pendant-tree" ~k:n a k3 vp tp vr tr))
      [ 200; 400; 800; 1600 ]
  in
  Util.table
    ~columns:
      [ "family"; "k"; "size"; "shrunk"; "verdict"; "pre"; "raw"; "speedup" ]
    (List.map snd padded @ multi @ List.map snd overhead @ List.map snd head
     @ List.map snd pendant);
  let core_shrink_speedup =
    match List.rev padded with ((_, s), _) :: _ -> s | [] -> nan
  in
  (* Guarded at the largest size, like the speedup: micro instances
     (sub-2ms solves) put the pipeline's fixed cost against timing noise,
     while the largest size is where overhead would actually hurt. *)
  let overhead_ratio =
    match List.rev overhead with ((_, r), _) :: _ -> r | [] -> nan
  in
  Util.note
    "padded-core end-to-end speedup at the largest redundancy: %.1fx \
     (acceptance floor: 3x)."
    core_shrink_speedup;
  if core_shrink_speedup < 3.0 then
    Util.note
      "WARNING: speedup %.1fx is below the 3x acceptance floor (timing \
       noise, or a real regression — see the perf_guard verdict)."
      core_shrink_speedup;
  Util.note
    "preprocess overhead on already-core instances at the largest size: \
     %.2fx (target <= 1.1x; guarded < 2x of baseline)."
    overhead_ratio;
  if overhead_ratio > 1.1 then
    Util.note
      "WARNING: overhead %.2fx exceeds the 1.1x target (timing noise, or a \
       real regression — see the perf_guard verdict)."
      overhead_ratio;
  (* The worse of the two head instances. *)
  let head_ratio = List.fold_left (fun acc (r, _) -> Float.max acc r) 0.0 head in
  Util.note
    "preprocess cost on head-decided instances: %.2fx the raw solve (target \
     ~1.0x; guarded < 2x of baseline)."
    head_ratio;
  let shrink_series = List.map fst pendant in
  let fold_ns_per_element =
    match List.rev shrink_series with
    | (size, t) :: _ -> t *. 1e9 /. float_of_int size
    | [] -> nan
  in
  Util.note
    "pendant-tree shrink: %.0f ns per element at the largest size, growth \
     exponent %.2f (linear: ~1)."
    fold_ns_per_element (Util.fitted_exponent shrink_series);
  append_perf_json (List.rev !json);
  Util.note "merged E19 rows into BENCH_perf.json.";
  perf_guard ~experiment:"E19"
    [
      ("core_shrink_speedup", core_shrink_speedup, true);
      ("preprocess_overhead_ratio", overhead_ratio, false);
      ("preprocess_head_ratio", head_ratio, false);
      ("fold_pendant_ns_per_element", fold_ns_per_element, false);
    ]

(* ------------------------------------------------------------------ *)
(* E20: streaming enumeration — delay per answer, counts that agree     *)
(* ------------------------------------------------------------------ *)

let e20 () =
  Util.header
    "E20 Streaming enumeration: polynomial delay and overflow-safe counting";
  let json = ref [] in
  (* Drain the stream once, timestamping every answer: the per-answer
     cost is total wall-clock over answers, and the maximum inter-answer
     gap is the quantity the polynomial-delay claim actually bounds
     (a backtracking enumerator can stall arbitrarily long between two
     answers; the reduced/DP routes cannot). *)
  let drain ?max_width a b =
    let t0 = Util.now_ns () in
    let last = ref t0 and max_gap = ref 0.0 and n = ref 0 in
    Seq.iter
      (fun _ ->
        let t = Util.now_ns () in
        if t -. !last > !max_gap then max_gap := t -. !last;
        last := t;
        incr n)
      (Enumerate.stream ?max_width a b);
    (!n, (Util.now_ns () -. t0) /. 1e9, !max_gap /. 1e9)
  in
  let row family ?max_width ~k a b =
    let route =
      Enumerate.route_name (Enumerate.plan ?max_width a b).Enumerate.route
    in
    (* Each side starts on a collected heap: a count timed right after
       the drain paid for the drain's garbage, and read 20 or 50 us at
       k=8 by the allocation history of the experiments run before. *)
    Gc.full_major ();
    let streamed, total_s, max_gap_s = drain ?max_width a b in
    Gc.full_major ();
    let counted, count_s =
      Util.time ~repeat:3 (fun () -> Enumerate.count ?max_width a b)
    in
    (* The zero-disagreements acceptance gate: the closed-form DP count
       must equal the length of the enumeration, on every row. *)
    if counted <> streamed then
      failwith
        (Printf.sprintf
           "E20: enumerate/count disagreement on %s k=%d: streamed %d, \
            counted %d"
           family k streamed counted);
    let per_answer_s = total_s /. float_of_int (max 1 streamed) in
    json :=
      row
        Json.[
          ("family", String family); ("k", Int k); ("size", Int (Structure.size a));
          ("route", String route); ("answers", Int streamed);
          ("total_s", num total_s); ("ns_per_answer", num (per_answer_s *. 1e9));
          ("max_gap_s", num max_gap_s); ("count_s", num count_s);
        ]
      :: !json;
    ( (per_answer_s, total_s, count_s),
      [
        family; int k; route; int streamed; f2s total_s;
        Printf.sprintf "%.0fns" (per_answer_s *. 1e9); f2s max_gap_s;
        f2s count_s;
      ] )
  in
  (* Embedded differential: on a small instance the streamed answer set
     must equal the naive materializing enumerator's, as sets. *)
  let a0 = Testkit.Workloads.path 4 and b0 = Testkit.Workloads.clique 4 in
  let sorted l = List.sort compare (List.map Array.to_list l) in
  assert (
    sorted (List.of_seq (Enumerate.stream a0 b0))
    = sorted (List.of_seq (Homomorphism.search_seq a0 b0)));
  let k4 = Testkit.Workloads.clique 4 in
  (* Acyclic route: directed paths into K4, 4*3^k answers — the answer
     set grows geometrically while the per-answer delay must not. *)
  let acyclic =
    List.map
      (fun k -> row "enum-acyclic-path" ~k (Testkit.Workloads.path k) k4)
      [ 4; 6; 8 ]
  in
  (* Treewidth route: undirected cycles (width 2) into K4. *)
  let tw =
    List.map
      (fun k ->
        row "enum-treewidth-cycle" ~k (Testkit.Workloads.undirected_cycle k) k4)
      [ 4; 6; 8 ]
  in
  (* Backtracking fallback on the same cycles ([max_width:0] disables
     the decomposition route): tabulated for comparison, not guarded —
     its delay carries no polynomial promise. *)
  let bt =
    List.map
      (fun k ->
        row "enum-backtracking-cycle" ~max_width:0 ~k
          (Testkit.Workloads.undirected_cycle k) k4)
      [ 4; 6; 8 ]
  in
  Util.table
    ~columns:
      [
        "family"; "k"; "route"; "answers"; "total"; "per answer"; "max gap";
        "count";
      ]
    (List.map snd acyclic @ List.map snd tw @ List.map snd bt);
  (* Metrics are guarded at the largest size of each family, where the
     per-answer cost is furthest from fixed setup noise. *)
  let largest l =
    match List.rev l with (m, _) :: _ -> m | [] -> (nan, nan, nan)
  in
  let acyclic_per, acyclic_total, acyclic_count = largest acyclic in
  let tw_per, _, _ = largest tw in
  (* Counting must beat materializing by orders of magnitude where the
     answer set is large: the DP touches each table cell once, the
     stream touches each of the 4*3^8 answers. *)
  let count_speedup = acyclic_total /. acyclic_count in
  Util.note
    "acyclic per-answer delay at k=8: %.0fns; treewidth: %.0fns (guarded \
     at < 2x baseline)."
    (acyclic_per *. 1e9) (tw_per *. 1e9);
  Util.note
    "counting vs draining the k=8 acyclic stream: %.0fx faster (floor: \
     2x, guarded at half baseline)."
    count_speedup;
  if count_speedup < 2.0 then
    Util.note
      "WARNING: count speedup %.1fx below the 2x floor (timing noise, or \
       a real regression — see the perf_guard verdict)."
      count_speedup;
  append_perf_json (List.rev !json);
  Util.note "merged E20 rows into BENCH_perf.json.";
  perf_guard ~experiment:"E20"
    [
      ("enum_acyclic_ns_per_answer", acyclic_per *. 1e9, false);
      ("enum_treewidth_ns_per_answer", tw_per *. 1e9, false);
      ("enum_count_speedup", count_speedup, true);
    ]

let all = [
  ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
  ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
  ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("ablations", ablations);
  ("certify", certify); ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19);
  ("e20", e20);
]
