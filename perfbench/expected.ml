(* The expected outcome of every job the benchmark runs, written out by
   hand: Table 2's verdicts and schema counts from the paper (2,116
   schemas per simplified property, 19 per bv-broadcast property, 41,183
   for naive Inv2_0), the paper's counterexample to Inv1_0 under the
   broken resilience condition n > 2t, and the verdicts and rejections
   the model zoo declares.  Nothing here is read back from the checker
   under test: a job whose outcome differs from its row is a failure. *)

type verdict = Holds | Violated

type expect =
  | Verdict of verdict * int option
      (** the verdict, and the schema count where the table gives one *)
  | Lint of string  (** a mutant rejected by this lint error code *)
  | Counterexample of string  (** a mutant refuted by a witness against this property *)
  | Fuzz of string
      (** a mutant the checker cannot see (this property holds on it) and
          the simulated network refutes *)

type row = {
  model : string;  (** model key, or the mutant's key *)
  spec : string;  (** property name; "-" for lint rejections *)
  expect : expect;
}

let holds ?schemas model spec = { model; spec; expect = Verdict (Holds, schemas) }
let violated model spec = { model; spec; expect = Verdict (Violated, None) }
let simplified spec = holds ~schemas:2116 "simplified" spec

(* Table 2, simplified automaton, plus the counterexample. *)
let table2 =
  List.map simplified [ "Inv1_0"; "Inv2_0"; "SRound-Term"; "Good_0"; "Dec_0" ]
  @ [ violated "simplified-broken" "Inv1_0" ]

let bv =
  List.map (holds ~schemas:19 "bv")
    [ "BV-Just0"; "BV-Just1"; "BV-Obl0"; "BV-Obl1"; "BV-Unif0"; "BV-Unif1"; "BV-Term" ]

(* Every zoo entry and property except Ben-Or's two solver-heavy ones
   (BenOr-Agree and BenOr-OneProp take about 30 s each).  The dbft-rta
   entry unrolls to the simplified automaton, hence Table 2's count. *)
let zoo =
  [
    holds "bracha" "Bracha-Unforg";
    violated "bracha" "Bracha-NoAccept";
    holds "phase-king" "PK-Persist1";
    holds "phase-king" "PK-Persist0";
    violated "phase-king" "PK-NoOne";
    holds "strb" "STRB-Unforg";
    violated "strb" "STRB-NoAccept";
    holds "frb" "FRB-Unforg";
    violated "frb" "FRB-NoAccept";
    holds "benor" "BenOr-Valid-D";
    holds ~schemas:2116 "dbft-rta" "Inv2_0";
    holds ~schemas:2116 "dbft-rta" "Good_0";
  ]

(* The simplified properties the invariant engine discharges statically. *)
let static_simplified =
  List.map simplified [ "Inv2_0"; "Inv2_1"; "Dec_0"; "Dec_1"; "Good_0"; "Good_1" ]

let naive = [ holds ~schemas:41183 "naive" "Inv2_0" ]

let mutants =
  [
    { model = "bracha-forged-echo"; spec = "Bracha-Unforg"; expect = Counterexample "Bracha-Unforg" };
    { model = "phase-king-baseless-adopt"; spec = "PK-Persist1"; expect = Counterexample "PK-Persist1" };
    { model = "strb-unsat-resilience"; spec = "-"; expect = Lint "TA005" };
    { model = "frb-cycle"; spec = "-"; expect = Lint "TA004" };
    { model = "bv-missing-slack"; spec = "BV-Just0"; expect = Fuzz "BV-Just0" };
    { model = "bv-unforged-echo"; spec = "BV-Just0"; expect = Fuzz "BV-Just0" };
  ]

let zoo_sweep = bv @ zoo @ static_simplified @ naive @ mutants

let id r = r.model ^ "/" ^ r.spec

let describe = function
  | Verdict (Holds, s) ->
    "holds" ^ (match s with Some n -> Printf.sprintf " (%d schemas)" n | None -> "")
  | Verdict (Violated, _) -> "violated (witness)"
  | Lint code -> "lint " ^ code
  | Counterexample spec -> "counterexample to " ^ spec
  | Fuzz spec -> "checker holds on " ^ spec ^ ", fuzz violates"

(* The self-test's deliberate mistake: the opposite verdict, or another
   lint code. *)
let flip r =
  let expect =
    match r.expect with
    | Verdict (Holds, s) -> Verdict (Violated, s)
    | Verdict (Violated, s) -> Verdict (Holds, s)
    | Lint _ -> Lint "TA000"
    | Counterexample s -> Fuzz s
    | Fuzz s -> Counterexample s
  in
  { r with expect }
