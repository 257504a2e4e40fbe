(* grid_fuzz: seeded mutation fuzzing of the grid linter.

   For a range of deterministic synthetic systems (Grid.Gen), inject one
   defect per class — islanding cut, admittance sign flip, duplicate
   line, generator/load bound inversion, measurement-count skew, a load
   split over two rows at its bus, a generator moved onto another's bus —
   and assert that Analysis.Grid_lint (a) never raises on any mutant and
   (b) reports the code the defect class is defined by.  The last two
   classes, printed with Grid.Spec.print, must also fail Grid.Spec.parse.
   Clean generated grids must lint with zero errors.  Exits nonzero on
   the first violation; wired into CI as the @fuzz-smoke alias. *)

module Q = Numeric.Rat
module N = Grid.Network
module Rng = Grid.Gen.Rng

let failures = ref 0
let checks = ref 0

let fail fmt =
  incr failures;
  Format.kasprintf (fun m -> Format.printf "FAIL: %s@." m) fmt

(* run the linter on a mutant; the linter must be total *)
let lint_codes ~what spec =
  match Analysis.Grid_lint.check spec with
  | diags -> List.map (fun d -> d.Analysis.Diagnostic.code) diags
  | exception e ->
    fail "%s: Grid_lint.check raised %s" what (Printexc.to_string e);
    []

let expect_code ~what ~code spec =
  incr checks;
  let codes = lint_codes ~what spec in
  if not (List.mem code codes) then
    fail "%s: expected code %S, got {%s}" what code
      (String.concat ", " (List.sort_uniq String.compare codes))

(* the printed mutant must not parse: Network.validate rejects it too *)
let expect_rejected ~what spec =
  incr checks;
  match Grid.Spec.parse (Grid.Spec.print spec) with
  | Error _ -> ()
  | Ok _ -> fail "%s: the printed mutant parses" what

let with_lines spec f =
  let g = spec.Grid.Spec.grid in
  { spec with Grid.Spec.grid = { g with N.lines = f (Array.copy g.N.lines) } }

(* one mutant per defect class, targets drawn from the seeded stream *)
let mutate_islanding_cut rng spec =
  let g = spec.Grid.Spec.grid in
  let b = g.N.n_buses in
  (* cut every true-topology line at a bus ring-distant from the
     reference, so bus 1 keeps its ring neighbours and the cut bus —
     not the reference — is the one reported unreachable *)
  let v = 2 + Rng.int rng (b - 3) in
  with_lines spec
    (Array.map (fun (ln : N.line) ->
         if ln.N.from_bus = v || ln.N.to_bus = v then
           { ln with N.in_true_topology = false }
         else ln))

let mutate_sign_flip rng spec =
  let g = spec.Grid.Spec.grid in
  let i = Rng.int rng (N.n_lines g) in
  with_lines spec (fun lines ->
      lines.(i) <- { lines.(i) with N.admittance = Q.neg lines.(i).N.admittance };
      lines)

let mutate_duplicate_row rng spec =
  let g = spec.Grid.Spec.grid in
  let l = N.n_lines g in
  let i = Rng.int rng l in
  let j = (i + 1 + Rng.int rng (l - 1)) mod l in
  with_lines spec (fun lines ->
      lines.(j) <-
        {
          lines.(j) with
          N.from_bus = lines.(i).N.from_bus;
          to_bus = lines.(i).N.to_bus;
        };
      lines)

let mutate_gen_bounds rng spec =
  let g = spec.Grid.Spec.grid in
  let k = Rng.int rng (Array.length g.N.gens) in
  let gens = Array.copy g.N.gens in
  gens.(k) <- { gens.(k) with N.pmin = Q.add gens.(k).N.pmax Q.one };
  { spec with Grid.Spec.grid = { g with N.gens } }

let mutate_load_bounds rng spec =
  let g = spec.Grid.Spec.grid in
  let k = Rng.int rng (Array.length g.N.loads) in
  let loads = Array.copy g.N.loads in
  loads.(k) <- { loads.(k) with N.lmin = Q.add loads.(k).N.lmax Q.one };
  { spec with Grid.Spec.grid = { g with N.loads } }

(* same total, in two rows of whole hundredths so the mutant prints and
   re-parses exactly *)
let mutate_split_load rng spec =
  let g = spec.Grid.Spec.grid in
  let n = Array.length g.N.loads in
  let k = Rng.int rng n in
  let ld = g.N.loads.(k) in
  let part = Q.round_to_digits 2 (Q.div ld.N.existing (Q.of_int 2)) in
  let loads =
    Array.concat
      [
        Array.sub g.N.loads 0 k;
        [|
          { ld with N.existing = part };
          { ld with N.existing = Q.sub ld.N.existing part };
        |];
        Array.sub g.N.loads (k + 1) (n - k - 1);
      ]
  in
  { spec with Grid.Spec.grid = { g with N.loads } }

let mutate_stacked_gen rng spec =
  let g = spec.Grid.Spec.grid in
  let n = Array.length g.N.gens in
  let k = Rng.int rng n in
  let onto = (k + 1 + Rng.int rng (n - 1)) mod n in
  let gens = Array.copy g.N.gens in
  gens.(k) <- { gens.(k) with N.gbus = gens.(onto).N.gbus };
  { spec with Grid.Spec.grid = { g with N.gens } }

let mutate_meas_skew rng spec =
  let g = spec.Grid.Spec.grid in
  let m = Array.length g.N.meas in
  let drop = 1 + Rng.int rng (min 3 (m - 1)) in
  { spec with Grid.Spec.grid = { g with N.meas = Array.sub g.N.meas 0 (m - drop) } }

(* name, mutation, defining lint code, whether the printed mutant must
   fail to parse *)
let classes =
  [
    ("islanding-cut", mutate_islanding_cut, "islanded-bus", false);
    ("sign-flip", mutate_sign_flip, "nonpositive-admittance", false);
    ("duplicate-row", mutate_duplicate_row, "duplicate-line", false);
    ("gen-bound-inversion", mutate_gen_bounds, "gen-bounds", false);
    ("load-bound-inversion", mutate_load_bounds, "load-bounds", false);
    ("meas-count-skew", mutate_meas_skew, "meas-count", false);
    ("split-load", mutate_split_load, "duplicate-load", true);
    ("stacked-generator", mutate_stacked_gen, "duplicate-generator", true);
  ]

let fuzz_system ~buses ~seed ~rounds =
  let spec = Grid.Gen.make ~seed buses in
  let what = Printf.sprintf "%d-bus seed %d" buses seed in
  (* the clean generated grid must lint error-free *)
  incr checks;
  (match Analysis.Grid_lint.check spec with
  | diags ->
    if Analysis.Diagnostic.has_errors diags then
      fail "%s: clean grid has lint errors:@.%a" what
        (fun fmt () -> Analysis.Diagnostic.pp_list fmt diags)
        ()
  | exception e ->
    fail "%s: Grid_lint.check raised %s on the clean grid" what
      (Printexc.to_string e));
  let rng = Rng.make (Hashtbl.hash (buses, seed, "grid_fuzz")) in
  for round = 1 to rounds do
    List.iter
      (fun (name, mutate, code, rejected) ->
        let what = Printf.sprintf "%s round %d %s" what round name in
        let mutant = mutate rng spec in
        expect_code ~what ~code mutant;
        if rejected then expect_rejected ~what mutant)
      classes
  done

let () =
  let sizes = [ 8; 12; 17; 24; 33; 48; 64 ] in
  List.iter
    (fun buses ->
      List.iter
        (fun seed -> fuzz_system ~buses ~seed ~rounds:3)
        [ buses; buses + 101 ])
    sizes;
  Format.printf "grid_fuzz: %d checks across %d systems, %d failure(s)@."
    !checks (2 * List.length sizes) !failures;
  if !failures > 0 then exit 1
