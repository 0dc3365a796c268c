module Q = Numbers.Rational
module IntMap = Map.Make (Int)

type result = Sat of (int * Q.t) list | Unsat | Unknown

exception Conflict
exception Timeout

(* How many pivots may elapse between two looks at the caller's [stop]
   predicate: the solver's fuel quantum.  Once a discharge is past its
   deadline, overshoot is bounded by the cost of this many pivots. *)
let stop_interval = 64

(* A tableau row: basic variable [var] as a linear combination of
   nonbasic variables, stored as parallel arrays of columns and nonzero
   coefficients in no particular order.  Rows are rewritten in place by
   pivoting, so a pivot allocates only the new coefficients. *)
type row = {
  mutable var : int;
  mutable cols : int array;
  mutable coefs : Q.t array;
  mutable len : int;
}

(* Internal solver state over densely numbered variables [0, nvars).
   [rows.(0 .. nrows-1)] is the tableau; [row_of.(x)] is the index of
   basic [x]'s row, [-1] for a nonbasic variable.  [pos] is scratch
   space for merging rows, [-1] everywhere between merges. *)
type state = {
  nvars : int;
  rows : row array;
  nrows : int;
  row_of : int array;
  pos : int array;
  beta : Delta.t array;
  lower : Delta.t option array;
  upper : Delta.t option array;
}

let row_of_terms var terms =
  let n = List.length terms in
  let cols = Array.make n 0 and coefs = Array.make n Q.zero in
  List.iteri
    (fun q (c, v) ->
      cols.(q) <- v;
      coefs.(q) <- c)
    terms;
  { var; cols; coefs; len = n }

(* Index of column [x] in [row], or [-1]. *)
let find row x =
  let rec go q = if q >= row.len then -1 else if row.cols.(q) = x then q else go (q + 1) in
  go 0

let append row col a =
  if row.len = Array.length row.cols then begin
    let cap = Stdlib.max 4 (2 * row.len) in
    let cols = Array.make cap 0 and coefs = Array.make cap Q.zero in
    Array.blit row.cols 0 cols 0 row.len;
    Array.blit row.coefs 0 coefs 0 row.len;
    row.cols <- cols;
    row.coefs <- coefs
  end;
  row.cols.(row.len) <- col;
  row.coefs.(row.len) <- a;
  row.len <- row.len + 1

(* Drop the zero coefficients. *)
let compact row =
  let k = ref 0 in
  for q = 0 to row.len - 1 do
    let a = row.coefs.(q) in
    if not (Q.is_zero a) then begin
      if !k < q then begin
        row.cols.(!k) <- row.cols.(q);
        row.coefs.(!k) <- a
      end;
      incr k
    end
  done;
  for q = !k to row.len - 1 do
    row.coefs.(q) <- Q.zero
  done;
  row.len <- !k

(* Merging into a row: [index] records each column's position in
   [pos], [add_scaled] adds [c] times [src] (keeping [pos] current), and
   [unindex] clears [pos] again before [compact] moves entries. *)
let index pos row =
  for q = 0 to row.len - 1 do
    pos.(row.cols.(q)) <- q
  done

let unindex pos row =
  for q = 0 to row.len - 1 do
    pos.(row.cols.(q)) <- -1
  done

let add_entry pos row k a =
  let pk = pos.(k) in
  if pk >= 0 then row.coefs.(pk) <- Q.add row.coefs.(pk) a
  else begin
    pos.(k) <- row.len;
    append row k a
  end

let add_scaled pos row c src =
  for q = 0 to src.len - 1 do
    add_entry pos row src.cols.(q) (Q.mul c src.coefs.(q))
  done

(* Replace the entry at [p] of [row], column xj with coefficient [c], by
   [c] times [row_j] (xj's defining row). *)
let substitute pos row p c row_j =
  row.coefs.(p) <- Q.zero;
  index pos row;
  add_scaled pos row c row_j;
  unindex pos row;
  compact row

let is_basic st x = st.row_of.(x) >= 0

let below_lower st x =
  match st.lower.(x) with None -> false | Some l -> Delta.compare st.beta.(x) l < 0

let above_upper st x =
  match st.upper.(x) with None -> false | Some u -> Delta.compare st.beta.(x) u > 0

(* Shift a nonbasic variable to value [v], propagating to basic rows. *)
let update st x v =
  let dv = Delta.sub v st.beta.(x) in
  for r = 0 to st.nrows - 1 do
    let row = st.rows.(r) in
    let p = find row x in
    if p >= 0 then st.beta.(row.var) <- Delta.add st.beta.(row.var) (Delta.scale row.coefs.(p) dv)
  done;
  st.beta.(x) <- v

let assert_upper st x c =
  let tighter = match st.upper.(x) with None -> true | Some u -> Delta.compare c u < 0 in
  if tighter then begin
    (match st.lower.(x) with
     | Some l when Delta.compare c l < 0 -> raise Conflict
     | _ -> ());
    st.upper.(x) <- Some c;
    if (not (is_basic st x)) && Delta.compare st.beta.(x) c > 0 then update st x c
  end

let assert_lower st x c =
  let tighter = match st.lower.(x) with None -> true | Some l -> Delta.compare c l > 0 in
  if tighter then begin
    (match st.upper.(x) with
     | Some u when Delta.compare c u > 0 -> raise Conflict
     | _ -> ());
    st.lower.(x) <- Some c;
    if (not (is_basic st x)) && Delta.compare st.beta.(x) c < 0 then update st x c
  end

(* Pivot basic [xi] with nonbasic [xj] and set beta(xi) to [v]. *)
let pivot_and_update st xi xj v =
  let r = st.row_of.(xi) in
  let row_i = st.rows.(r) in
  let p = find row_i xj in
  let aij = row_i.coefs.(p) in
  let inv = Q.inv aij in
  let theta = Delta.scale inv (Delta.sub v st.beta.(xi)) in
  st.beta.(xi) <- v;
  st.beta.(xj) <- Delta.add st.beta.(xj) theta;
  (* Turn row_i into the row for xj in place:
     xj = xi/aij - sum_{k<>j} (aik/aij) xk. *)
  let neg_inv = Q.neg inv in
  for q = 0 to row_i.len - 1 do
    if q = p then begin
      row_i.cols.(q) <- xi;
      row_i.coefs.(q) <- inv
    end
    else row_i.coefs.(q) <- Q.mul row_i.coefs.(q) neg_inv
  done;
  row_i.var <- xj;
  st.row_of.(xi) <- -1;
  st.row_of.(xj) <- r;
  (* Substitute xj in every other row. *)
  for r' = 0 to st.nrows - 1 do
    if r' <> r then begin
      let row = st.rows.(r') in
      let pk = find row xj in
      if pk >= 0 then begin
        let c = row.coefs.(pk) in
        st.beta.(row.var) <- Delta.add st.beta.(row.var) (Delta.scale c theta);
        substitute st.pos row pk c row_i
      end
    end
  done

(* The smallest column of [row] that [ok] accepts, or [-1].  Rows are
   unordered, so every entry is looked at; this is the first eligible
   column in ascending order, as Bland's rule asks. *)
let bland_column row ok =
  let best = ref (-1) in
  for q = 0 to row.len - 1 do
    let k = row.cols.(q) in
    if (!best < 0 || k < !best) && ok k row.coefs.(q) then best := k
  done;
  !best

(* Main check loop with Bland's rule (smallest indices) for termination.
   An aborted loop ([stop] raised {!Timeout} mid-search) leaves a valid
   equivalent tableau behind — pivoting only rewrites the equality
   system — so the state can be re-checked later without repair. *)
let check_core ?stop st =
  let pivots = ref 0 in
  let see_stop () =
    match stop with
    | None -> ()
    | Some f ->
      if !pivots mod stop_interval = 0 && f () then raise Timeout;
      incr pivots
  in
  let can_increase k = match st.upper.(k) with None -> true | Some u -> Delta.compare st.beta.(k) u < 0 in
  let can_decrease k = match st.lower.(k) with None -> true | Some l -> Delta.compare st.beta.(k) l > 0 in
  let rec loop () =
    see_stop ();
    (* The smallest basic variable outside its bounds. *)
    let xi = ref (-1) in
    for r = 0 to st.nrows - 1 do
      let x = st.rows.(r).var in
      if (!xi < 0 || x < !xi) && (below_lower st x || above_upper st x) then xi := x
    done;
    if !xi < 0 then `Ok
    else begin
      let xi = !xi in
      let row = st.rows.(st.row_of.(xi)) in
      if below_lower st xi then begin
        (* Increase xi. *)
        let xj =
          bland_column row (fun k a -> if Q.sign a > 0 then can_increase k else can_decrease k)
        in
        if xj < 0 then `Conflict (xi, `Below)
        else begin
          pivot_and_update st xi xj (Option.get st.lower.(xi));
          loop ()
        end
      end
      else begin
        (* Decrease xi. *)
        let xj =
          bland_column row (fun k a -> if Q.sign a < 0 then can_increase k else can_decrease k)
        in
        if xj < 0 then `Conflict (xi, `Above)
        else begin
          pivot_and_update st xi xj (Option.get st.upper.(xi));
          loop ()
        end
      end
    end
  in
  loop ()

let check ?stop st =
  match check_core ?stop st with `Ok -> () | `Conflict _ -> raise Conflict

(* ------------------------------------------------------------------ *)
(* Problem setup: dense renumbering, slack variables, bounds.           *)

let solve_internal ?stop atoms =
  (* Constant atoms are decided immediately. *)
  let atoms =
    List.filter_map
      (fun a ->
        match Atom.trivial a with
        | Some true -> None
        | Some false -> raise Conflict
        | None -> Some a)
      atoms
  in
  let original_vars =
    List.concat_map Atom.vars atoms |> List.sort_uniq Int.compare
  in
  let dense = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace dense v i) original_vars;
  let norig = List.length original_vars in
  (* One slack variable per distinct linear part. *)
  let slack_of = Hashtbl.create 16 in
  let slack_rows = ref [] in
  let nslack = ref 0 in
  let constraints =
    List.map
      (fun (a : Atom.t) ->
        let linear =
          Linexpr.terms a.expr
          |> List.map (fun (c, v) -> (c, Hashtbl.find dense v))
        in
        let bound = Q.neg (Linexpr.constant a.expr) in
        match linear with
        | [ (c, v) ] ->
          (* Single-variable atom: bound the variable directly — no slack
             row needed.  A negative coefficient flips the bound side. *)
          (`Direct (v, Q.sign c > 0), a.rel, Q.div bound c)
        | _ ->
          let key = linear in
          let slack =
            match Hashtbl.find_opt slack_of key with
            | Some s -> s
            | None ->
              let s = norig + !nslack in
              incr nslack;
              Hashtbl.replace slack_of key s;
              slack_rows := (s, linear) :: !slack_rows;
              s
          in
          (`Slack slack, a.rel, bound))
      (List.filter (fun (a : Atom.t) -> not (Linexpr.is_const a.expr)) atoms)
  in
  let nvars = norig + !nslack in
  let rows = Array.of_list (List.rev_map (fun (s, linear) -> row_of_terms s linear) !slack_rows) in
  let st =
    {
      nvars;
      rows;
      nrows = Array.length rows;
      row_of = Array.make nvars (-1);
      pos = Array.make nvars (-1);
      beta = Array.make nvars Delta.zero;
      lower = Array.make nvars None;
      upper = Array.make nvars None;
    }
  in
  Array.iteri (fun r row -> st.row_of.(row.var) <- r) rows;
  List.iter
    (fun (target, rel, bound) ->
      let v, upper_side =
        match target with `Slack s -> (s, true) | `Direct (v, pos) -> (v, pos)
      in
      match ((rel : Atom.rel), upper_side) with
      | Le, true -> assert_upper st v (Delta.of_rational bound)
      | Lt, true -> assert_upper st v (Delta.make bound Q.minus_one)
      | Le, false -> assert_lower st v (Delta.of_rational bound)
      | Lt, false -> assert_lower st v (Delta.make bound Q.one)
      | Eq, _ ->
        assert_upper st v (Delta.of_rational bound);
        assert_lower st v (Delta.of_rational bound))
    constraints;
  check ?stop st;
  (original_vars, st)

let solve_delta ?stop atoms =
  match solve_internal ?stop atoms with
  | exception Conflict -> None
  | original_vars, st ->
    Some (List.mapi (fun i v -> (v, st.beta.(i))) original_vars)

(* ------------------------------------------------------------------ *)
(* Incremental assertion-stack interface.

   The tableau (the [rows] equality system) is permanent: pivoting only
   rewrites it into an equivalent system, and a slack variable's defining
   row constrains nothing once the slack's bounds are retracted — so
   [pop] never touches rows, it only unwinds bound changes from the
   frame's trail.  Variables and slack rows allocated inside a popped
   frame stay behind, unbounded and therefore vacuous, ready to be
   reused when a sibling branch asserts the same linear form (the
   prefix-sharing the incremental checker lives on).

   Within a frame, bounds only ever tighten, so popping (loosening)
   keeps every nonbasic variable inside its restored bounds; basic
   variables may drift out, which the next [check] repairs — exactly the
   Dutertre–de Moura backtracking discipline. *)

module Session = struct
  (* Provenance of a live bound: the caller's tag for the asserting atom
     and the multiplier [m] such that input_expr = m * bound_expr, where
     bound_expr is [x - c <= 0] for an upper bound and [c - x <= 0] for a
     lower bound.  [None] means the bound was asserted untagged, so any
     conflict touching it has no explanation. *)
  type src = (int * Q.t) option

  type frame = {
    mutable trail : (int * [ `Lower | `Upper ] * Delta.t option * src) list;
    saved_infeasible : bool;
    saved_conflict : (int * Q.t) list option;
  }

  type session = {
    mutable n : int;  (** dense variables allocated (externals + slacks) *)
    mutable beta : Delta.t array;
    mutable lower : Delta.t option array;
    mutable upper : Delta.t option array;
    mutable lo_src : src array;
    mutable hi_src : src array;
    mutable row_of : int array;
    mutable pos : int array;
    mutable rows : row array;
    mutable nrows : int;
    dense : (int, int) Hashtbl.t;  (** external variable -> dense id *)
    mutable ext : int list;  (** external variables, reverse arrival order *)
    slack_of : ((Q.t * int) list, int) Hashtbl.t;
    mutable frames : frame list;
    mutable infeasible : bool;
    mutable conflict : (int * Q.t) list option;
        (** meaningful only while [infeasible] *)
  }

  type t = session

  let create () =
    {
      n = 0;
      beta = Array.make 64 Delta.zero;
      lower = Array.make 64 None;
      upper = Array.make 64 None;
      lo_src = Array.make 64 None;
      hi_src = Array.make 64 None;
      row_of = Array.make 64 (-1);
      pos = Array.make 64 (-1);
      rows = [||];
      nrows = 0;
      dense = Hashtbl.create 64;
      ext = [];
      slack_of = Hashtbl.create 64;
      frames = [];
      infeasible = false;
      conflict = None;
    }

  let view s =
    { nvars = s.n; rows = s.rows; nrows = s.nrows; row_of = s.row_of; pos = s.pos;
      beta = s.beta; lower = s.lower; upper = s.upper }

  let grow s =
    let cap = Array.length s.beta in
    if s.n >= cap then begin
      let cap' = 2 * cap in
      let extend mk a = Array.init cap' (fun i -> if i < cap then a.(i) else mk) in
      s.beta <- extend Delta.zero s.beta;
      s.lower <- extend None s.lower;
      s.upper <- extend None s.upper;
      s.lo_src <- extend None s.lo_src;
      s.hi_src <- extend None s.hi_src;
      s.row_of <- extend (-1) s.row_of;
      s.pos <- extend (-1) s.pos
    end

  let alloc s =
    grow s;
    let v = s.n in
    s.n <- s.n + 1;
    s.beta.(v) <- Delta.zero;
    s.lower.(v) <- None;
    s.upper.(v) <- None;
    s.lo_src.(v) <- None;
    s.hi_src.(v) <- None;
    s.row_of.(v) <- -1;
    v

  let dense_of s x =
    match Hashtbl.find_opt s.dense x with
    | Some v -> v
    | None ->
      let v = alloc s in
      Hashtbl.replace s.dense x v;
      s.ext <- x :: s.ext;
      v

  let push s =
    s.frames <-
      { trail = []; saved_infeasible = s.infeasible; saved_conflict = s.conflict }
      :: s.frames

  let pop s =
    match s.frames with
    | [] -> invalid_arg "Simplex.Session.pop: empty assertion stack"
    | frame :: rest ->
      List.iter
        (fun (x, side, prev, prev_src) ->
          match side with
          | `Lower ->
            s.lower.(x) <- prev;
            s.lo_src.(x) <- prev_src
          | `Upper ->
            s.upper.(x) <- prev;
            s.hi_src.(x) <- prev_src)
        frame.trail;
      s.infeasible <- frame.saved_infeasible;
      s.conflict <- frame.saved_conflict;
      s.frames <- rest

  let record s x side prev prev_src =
    match s.frames with
    | [] -> ()  (* base level: permanent *)
    | frame :: _ -> frame.trail <- (x, side, prev, prev_src) :: frame.trail

  (* Combine bound-level contributions [(src, mu)] with mu > 0 into a
     Farkas explanation over input tags: lambda(tag) += mu / m.  Any
     untagged bound poisons the whole explanation. *)
  let combine contribs =
    let rec go acc = function
      | [] ->
        Some
          (IntMap.bindings acc
          |> List.filter (fun (_, l) -> not (Q.is_zero l)))
      | (None, _) :: _ -> None
      | (Some (tag, m), mu) :: rest ->
        let lam = Q.div mu m in
        let acc =
          IntMap.update tag
            (function None -> Some lam | Some l -> Some (Q.add l lam))
            acc
        in
        go acc rest
    in
    go IntMap.empty contribs

  let set_conflict s expl =
    s.infeasible <- true;
    s.conflict <- expl

  let session_assert_upper s x c src =
    let tighter =
      match s.upper.(x) with None -> true | Some u -> Delta.compare c u < 0
    in
    if tighter then begin
      match s.lower.(x) with
      | Some l when Delta.compare c l < 0 ->
        set_conflict s (combine [ (src, Q.one); (s.lo_src.(x), Q.one) ])
      | _ ->
        record s x `Upper s.upper.(x) s.hi_src.(x);
        s.upper.(x) <- Some c;
        s.hi_src.(x) <- src;
        if s.row_of.(x) < 0 && Delta.compare s.beta.(x) c > 0 then update (view s) x c
    end

  let session_assert_lower s x c src =
    let tighter =
      match s.lower.(x) with None -> true | Some l -> Delta.compare c l > 0
    in
    if tighter then begin
      match s.upper.(x) with
      | Some u when Delta.compare c u > 0 ->
        set_conflict s (combine [ (src, Q.one); (s.hi_src.(x), Q.one) ])
      | _ ->
        record s x `Lower s.lower.(x) s.lo_src.(x);
        s.lower.(x) <- Some c;
        s.lo_src.(x) <- src;
        if s.row_of.(x) < 0 && Delta.compare s.beta.(x) c < 0 then update (view s) x c
    end

  (* Farkas explanation of a simplex conflict: basic [xi] stuck outside
     its bound with no usable pivot column means every row variable sits
     at its blocking bound.  Combining the violated bound of [xi]
     (coefficient 1) with each row variable's blocking bound (coefficient
     |a_k|) cancels all variables and leaves a positive constant. *)
  let explain_conflict s xi dir =
    let row = s.rows.(s.row_of.(xi)) in
    let own =
      match dir with
      | `Below -> (s.lo_src.(xi), Q.one)
      | `Above -> (s.hi_src.(xi), Q.one)
    in
    let contribs = ref [ own ] in
    for q = 0 to row.len - 1 do
      let k = row.cols.(q) and a = row.coefs.(q) in
      let entry =
        match dir with
        | `Below -> if Q.sign a > 0 then (s.hi_src.(k), a) else (s.lo_src.(k), Q.neg a)
        | `Above -> if Q.sign a > 0 then (s.lo_src.(k), a) else (s.hi_src.(k), Q.neg a)
      in
      contribs := entry :: !contribs
    done;
    combine !contribs

  (* A new slack row must be expressed over nonbasic variables (the
     tableau invariant), so substitute the current definition of any
     basic variable it mentions, and give the slack the beta value the
     row dictates. *)
  let install_slack s linear =
    let slack = alloc s in
    let row = { var = slack; cols = [||]; coefs = [||]; len = 0 } in
    List.iter
      (fun (c, v) ->
        let r = s.row_of.(v) in
        if r >= 0 then add_scaled s.pos row c s.rows.(r) else add_entry s.pos row v c)
      linear;
    unindex s.pos row;
    compact row;
    let beta = ref Delta.zero in
    for q = 0 to row.len - 1 do
      beta := Delta.add !beta (Delta.scale row.coefs.(q) s.beta.(row.cols.(q)))
    done;
    s.beta.(slack) <- !beta;
    if s.nrows = Array.length s.rows then begin
      let rows = Array.make (Stdlib.max 64 (2 * s.nrows)) row in
      Array.blit s.rows 0 rows 0 s.nrows;
      s.rows <- rows
    end;
    s.rows.(s.nrows) <- row;
    s.row_of.(slack) <- s.nrows;
    s.nrows <- s.nrows + 1;
    Hashtbl.replace s.slack_of linear slack;
    slack

  let assert_atom ?tag s (a : Atom.t) =
    if not s.infeasible then begin
      match Atom.trivial a with
      | Some true -> ()
      | Some false ->
        (* Constant falsehood: the atom is its own (one-premise)
           explanation. *)
        set_conflict s (Option.map (fun t -> [ (t, Q.one) ]) tag)
      | None ->
        let linear =
          Linexpr.terms a.expr |> List.map (fun (c, v) -> (c, dense_of s v))
        in
        let bound = Q.neg (Linexpr.constant a.expr) in
        let target, upper_side, bound, mult_u, mult_l =
          match linear with
          | [ (c, v) ] -> (v, Q.sign c > 0, Q.div bound c, c, Q.neg c)
          | _ ->
            let slack =
              match Hashtbl.find_opt s.slack_of linear with
              | Some slack -> slack
              | None -> install_slack s linear
            in
            (slack, true, bound, Q.one, Q.minus_one)
        in
        let src m = Option.map (fun t -> (t, m)) tag in
        match (a.rel, upper_side) with
        | Atom.Le, true ->
          session_assert_upper s target (Delta.of_rational bound) (src mult_u)
        | Atom.Lt, true ->
          session_assert_upper s target (Delta.make bound Q.minus_one) (src mult_u)
        | Atom.Le, false ->
          session_assert_lower s target (Delta.of_rational bound) (src mult_l)
        | Atom.Lt, false ->
          session_assert_lower s target (Delta.make bound Q.one) (src mult_l)
        | Atom.Eq, _ ->
          session_assert_upper s target (Delta.of_rational bound) (src mult_u);
          if not s.infeasible then
            session_assert_lower s target (Delta.of_rational bound) (src mult_l)
    end

  let is_infeasible s = s.infeasible

  let infeasible_expl s = if s.infeasible then s.conflict else None

  let check ?stop s =
    if s.infeasible then `Unsat s.conflict
    else
      match check_core ?stop (view s) with
      | `Ok -> `Sat
      | `Conflict (xi, dir) ->
        let expl = explain_conflict s xi dir in
        set_conflict s expl;
        `Unsat expl

  let value s x =
    match Hashtbl.find_opt s.dense x with
    | Some v -> s.beta.(v)
    | None -> Delta.zero

  let vars s = List.sort Int.compare s.ext

  let push_level = push

  let pop_levels s n =
    if n < 0 then invalid_arg "Simplex.Session.pop_levels: negative count";
    for _ = 1 to n do
      pop s
    done

  let level s = List.length s.frames
end

let solve ?stop atoms =
  match solve_delta ?stop atoms with
  | None -> Unsat
  | Some deltas ->
    (* Concretize delta: start at 1 and halve until every atom holds. *)
    let values = Hashtbl.create (List.length deltas) in
    let assign v = match Hashtbl.find_opt values v with Some q -> q | None -> Q.zero in
    let rec concretize d tries =
      if tries = 0 then Unknown
      else begin
        List.iter
          (fun (v, { Delta.r; d = k }) -> Hashtbl.replace values v (Q.add r (Q.mul k d)))
          deltas;
        if List.for_all (Atom.holds assign) atoms then
          Sat (List.map (fun (v, _) -> (v, assign v)) deltas)
        else concretize (Q.div d (Q.of_int 2)) (tries - 1)
      end
    in
    concretize Q.one 4096
