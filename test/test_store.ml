(* Tests for lib/store: canonical-key invariance under file-row
   permutation, key sensitivity to single-field mutations, LRU byte-budget
   eviction, journal crash recovery (truncation at every byte offset of
   the tail record), and the cache facade with persistence. *)

module Q = Numeric.Rat
module N = Grid.Network
module C = Store.Canonical

let q = Q.of_ints

(* ---- permutation helpers ---- *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Permute the line rows of a network (together with their index-linked
   forward/backward flow-measurement rows) plus the generator and load
   rows — the network-level image of shuffling those sections of a .grid
   file. *)
let permute_network seed (g : N.t) =
  let st = Random.State.make [| seed |] in
  let nl = Array.length g.N.lines in
  let perm = Array.init nl Fun.id in
  shuffle st perm;
  let lines = Array.init nl (fun i -> g.N.lines.(perm.(i))) in
  let meas =
    Array.init (Array.length g.N.meas) (fun k ->
        if k < nl then g.N.meas.(perm.(k)) (* forward flow of line k *)
        else if k < 2 * nl then g.N.meas.(nl + perm.(k - nl)) (* backward *)
        else g.N.meas.(k) (* injection: indexed by bus, untouched *))
  in
  let gens = Array.copy g.N.gens in
  shuffle st gens;
  let loads = Array.copy g.N.loads in
  shuffle st loads;
  { g with N.lines; meas; gens; loads }

let permute_spec seed (spec : Grid.Spec.t) =
  { spec with Grid.Spec.grid = permute_network seed spec.Grid.Spec.grid }

let ieee14 () =
  match Grid.Spec.parse (Grid.Spec.print (Grid.Test_systems.ieee 14)) with
  | Ok s -> s
  | Error e -> Alcotest.failf "ieee14 roundtrip: %s" e

let case5 () = Grid.Test_systems.case_study_1 ()

let params = [ ("mode", "topo"); ("backend", "lp") ]

(* ---- canonical-key invariance ---- *)

let canonical_tests =
  [
    Alcotest.test_case "permuted .grid file yields identical key" `Quick
      (fun () ->
        (* roundtrip the permuted spec through the text format so the
           comparison is between two genuinely reordered .grid files *)
        List.iter
          (fun spec ->
            let k0 = C.key ~params spec in
            for seed = 1 to 10 do
              let printed = Grid.Spec.print (permute_spec seed spec) in
              match Grid.Spec.parse printed with
              | Error e -> Alcotest.failf "reparse failed: %s" e
              | Ok spec' ->
                Alcotest.(check string)
                  (Printf.sprintf "seed %d" seed)
                  k0 (C.key ~params spec')
            done)
          [ case5 (); ieee14 () ]);
    Alcotest.test_case "params are order-insensitive" `Quick (fun () ->
        let spec = case5 () in
        Alcotest.(check string)
          "sorted = reversed"
          (C.key ~params spec)
          (C.key ~params:(List.rev params) spec));
    Alcotest.test_case "different params change the key" `Quick (fun () ->
        let spec = case5 () in
        Alcotest.(check bool)
          "mode matters" false
          (C.key ~params spec
          = C.key ~params:[ ("mode", "state"); ("backend", "lp") ] spec));
    Alcotest.test_case "verify_key separates topology and loads" `Quick
      (fun () ->
        let spec = case5 () in
        let g = spec.Grid.Spec.grid in
        let mapped = Array.make (N.n_lines g) true in
        let loads = Array.make g.N.n_buses (q 1 10) in
        let k0 = C.verify_key ~backend:"lp" ~mapped ~loads g in
        let mapped' = Array.copy mapped in
        mapped'.(2) <- false;
        let k1 = C.verify_key ~backend:"lp" ~mapped:mapped' ~loads g in
        let loads' = Array.copy loads in
        loads'.(1) <- q 2 10;
        let k2 = C.verify_key ~backend:"lp" ~mapped ~loads:loads' g in
        Alcotest.(check bool) "topology matters" false (k0 = k1);
        Alcotest.(check bool) "loads matter" false (k0 = k2);
        Alcotest.(check string)
          "deterministic" k0
          (C.verify_key ~backend:"lp" ~mapped ~loads g));
    Alcotest.test_case "verify_key names the physical topology, not row bits"
      `Quick (fun () ->
        (* two .grid files that are row permutations of each other share a
           grid fingerprint, but a mapped bitstring is indexed by file
           row: the same bits over the permuted file denote different
           physical lines.  The verify key must (a) agree when the bits
           are permuted along with the rows — same poisoned topology —
           and (b) differ when the same bits are applied to the permuted
           rows — a different poisoned topology. *)
        let spec = case5 () in
        let g = spec.Grid.Spec.grid in
        let nl = N.n_lines g in
        let loads = Array.make g.N.n_buses (q 1 10) in
        (* swap line rows 0 and 1 together with their index-linked
           forward/backward flow-measurement rows *)
        let swap a i j =
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        in
        let g' =
          let lines = Array.copy g.N.lines in
          swap lines 0 1;
          let meas = Array.copy g.N.meas in
          swap meas 0 1;
          swap meas nl (nl + 1);
          { g with N.lines; meas }
        in
        Alcotest.(check bool) "rows 0 and 1 differ" false
          (g.N.lines.(0) = g.N.lines.(1));
        let mapped = Array.init nl (fun i -> i <> 0) in
        let mapped' = Array.init nl (fun i -> i <> 1) in
        let k ~mapped g = C.verify_key ~backend:"lp" ~mapped ~loads g in
        Alcotest.(check string) "same physical topology, same key"
          (k ~mapped g)
          (k ~mapped:mapped' g');
        Alcotest.(check bool)
          "same bits over permuted rows is a different topology" false
          (k ~mapped g = k ~mapped g'));
    Alcotest.test_case "ordering fingerprint pins the row order" `Quick
      (fun () ->
        let spec = ieee14 () in
        let g = spec.Grid.Spec.grid in
        Alcotest.(check string) "deterministic" (C.ordering g) (C.ordering g);
        for seed = 1 to 5 do
          let g' = (permute_spec seed spec).Grid.Spec.grid in
          (* skip a seed that happens to permute nothing *)
          if g.N.lines <> g'.N.lines || g.N.gens <> g'.N.gens
             || g.N.loads <> g'.N.loads
          then
            Alcotest.(check bool)
              (Printf.sprintf "permutation %d changes it" seed)
              false
              (C.ordering g = C.ordering g')
        done);
  ]

(* ---- single-field mutation sensitivity ---- *)

(* every mutation below changes exactly one field of the spec; each must
   change the store key *)
let mutations : (string * (Grid.Spec.t -> Grid.Spec.t)) list =
  let with_grid f (s : Grid.Spec.t) = { s with Grid.Spec.grid = f s.Grid.Spec.grid } in
  let with_line i f =
    with_grid (fun g ->
        let lines = Array.copy g.N.lines in
        lines.(i) <- f lines.(i);
        { g with N.lines })
  in
  let with_meas i f =
    with_grid (fun g ->
        let meas = Array.copy g.N.meas in
        meas.(i) <- f meas.(i);
        { g with N.meas })
  in
  [
    ("line admittance", with_line 0 (fun l -> { l with N.admittance = Q.add l.N.admittance (q 1 100) }));
    ("line capacity", with_line 1 (fun l -> { l with N.capacity = Q.add l.N.capacity (q 1 100) }));
    ("line known flag", with_line 2 (fun l -> { l with N.known = not l.N.known }));
    ("line in_true_topology", with_line 3 (fun l -> { l with N.in_true_topology = not l.N.in_true_topology }));
    ("line fixed flag", with_line 4 (fun l -> { l with N.fixed = not l.N.fixed }));
    ("line status_secured", with_line 5 (fun l -> { l with N.status_secured = not l.N.status_secured }));
    ("line status_alterable", with_line 6 (fun l -> { l with N.status_alterable = not l.N.status_alterable }));
    ("meas taken (fwd)", with_meas 0 (fun m -> { m with N.taken = not m.N.taken }));
    ("meas secured (bwd)", with_meas 8 (fun m -> { m with N.secured = not m.N.secured }));
    ("meas accessible (inj)", with_meas 15 (fun m -> { m with N.accessible = not m.N.accessible }));
    ( "gen pmax",
      with_grid (fun g ->
          let gens = Array.copy g.N.gens in
          gens.(0) <- { gens.(0) with N.pmax = Q.add gens.(0).N.pmax (q 1 10) };
          { g with N.gens }) );
    ( "gen beta",
      with_grid (fun g ->
          let gens = Array.copy g.N.gens in
          gens.(1) <- { gens.(1) with N.beta = Q.add gens.(1).N.beta Q.one };
          { g with N.gens }) );
    ( "load existing",
      with_grid (fun g ->
          let loads = Array.copy g.N.loads in
          loads.(0) <- { loads.(0) with N.existing = Q.add loads.(0).N.existing (q 1 100) };
          { g with N.loads }) );
    ( "load lmax",
      with_grid (fun g ->
          let loads = Array.copy g.N.loads in
          loads.(1) <- { loads.(1) with N.lmax = Q.add loads.(1).N.lmax (q 1 100) };
          { g with N.loads }) );
    ("max_meas budget", fun s -> { s with Grid.Spec.max_meas = s.Grid.Spec.max_meas + 1 });
    ("max_buses budget", fun s -> { s with Grid.Spec.max_buses = s.Grid.Spec.max_buses + 1 });
    ("cost_reference", fun s -> { s with Grid.Spec.cost_reference = Q.add s.Grid.Spec.cost_reference Q.one });
    ("min_increase_pct", fun s -> { s with Grid.Spec.min_increase_pct = Q.add s.Grid.Spec.min_increase_pct Q.one });
  ]

let mutation_tests =
  [
    Alcotest.test_case "every single-field mutation changes the key" `Quick
      (fun () ->
        let spec = case5 () in
        let k0 = C.key ~params spec in
        List.iter
          (fun (name, mutate) ->
            Alcotest.(check bool) name false (k0 = C.key ~params (mutate spec)))
          mutations);
    (let open QCheck2 in
     QCheck_alcotest.to_alcotest
       (Test.make ~count:60 ~name:"random line-field mutation changes the key"
          Gen.(pair (int_range 0 6) (int_range 0 6))
          (fun (line, field) ->
            let spec = case5 () in
            let k0 = C.key ~params spec in
            let mutate (l : N.line) =
              match field with
              | 0 -> { l with N.admittance = Q.add l.N.admittance (q 3 1000) }
              | 1 -> { l with N.capacity = Q.add l.N.capacity (q 3 1000) }
              | 2 -> { l with N.known = not l.N.known }
              | 3 -> { l with N.in_true_topology = not l.N.in_true_topology }
              | 4 -> { l with N.fixed = not l.N.fixed }
              | 5 -> { l with N.status_secured = not l.N.status_secured }
              | _ -> { l with N.status_alterable = not l.N.status_alterable }
            in
            let g = spec.Grid.Spec.grid in
            let lines = Array.copy g.N.lines in
            lines.(line) <- mutate lines.(line);
            let spec' = { spec with Grid.Spec.grid = { g with N.lines } } in
            k0 <> C.key ~params spec')));
    (let open QCheck2 in
     QCheck_alcotest.to_alcotest
       (Test.make ~count:60
          ~name:"random permutation preserves the key (14-bus)"
          Gen.(int_range 1 1_000_000)
          (fun seed ->
            let spec = ieee14 () in
            C.key ~params spec = C.key ~params (permute_spec seed spec))));
  ]

(* ---- LRU ---- *)

let lru_tests =
  [
    Alcotest.test_case "evicts least-recently-used first" `Quick (fun () ->
        (* each entry costs 1 + 1 + 64 = 66 bytes; budget fits two *)
        let l = Store.Lru.create ~max_bytes:140 in
        ignore (Store.Lru.add l ~key:"a" ~value:"1");
        ignore (Store.Lru.add l ~key:"b" ~value:"2");
        (* touch a so b is now the LRU entry *)
        Alcotest.(check (option string)) "find a" (Some "1") (Store.Lru.find l "a");
        let evicted = Store.Lru.add l ~key:"c" ~value:"3" in
        Alcotest.(check (list string)) "b evicted" [ "b" ] evicted;
        Alcotest.(check (option string)) "a kept" (Some "1") (Store.Lru.find l "a");
        Alcotest.(check (option string)) "c kept" (Some "3") (Store.Lru.find l "c");
        Alcotest.(check (option string)) "b gone" None (Store.Lru.find l "b"));
    Alcotest.test_case "replace does not report the old key as evicted"
      `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:1000 in
        ignore (Store.Lru.add l ~key:"k" ~value:"old");
        let evicted = Store.Lru.add l ~key:"k" ~value:"new" in
        Alcotest.(check (list string)) "no eviction" [] evicted;
        Alcotest.(check (option string)) "new value" (Some "new")
          (Store.Lru.find l "k");
        Alcotest.(check int) "one entry" 1 (Store.Lru.length l));
    Alcotest.test_case "entry larger than the whole budget is not stored"
      `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:80 in
        ignore (Store.Lru.add l ~key:"big" ~value:(String.make 100 'x'));
        Alcotest.(check int) "empty" 0 (Store.Lru.length l);
        Alcotest.(check (option string)) "absent" None (Store.Lru.find l "big"));
    Alcotest.test_case "bytes tracks the budget accounting" `Quick (fun () ->
        let l = Store.Lru.create ~max_bytes:10_000 in
        ignore (Store.Lru.add l ~key:"ab" ~value:"cde");
        Alcotest.(check int) "2 + 3 + 64" 69 (Store.Lru.bytes l);
        ignore (Store.Lru.add l ~key:"ab" ~value:"x");
        Alcotest.(check int) "replacement reaccounted" 67 (Store.Lru.bytes l));
  ]

(* ---- journal ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_journal name records k =
  let path = tmp name in
  if Sys.file_exists path then Sys.remove path;
  (match Store.Journal.open_append path with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (j, _) ->
    List.iter (fun (key, value) -> Store.Journal.append j ~key ~value) records;
    Store.Journal.close j);
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> k path)

let journal_tests =
  [
    Alcotest.test_case "roundtrip preserves records in order" `Quick (fun () ->
        let records = [ ("k1", "v1"); ("k2", "value two\nwith newline"); ("k3", "") ] in
        with_journal "tg-journal-rt.j" records (fun path ->
            match Store.Journal.scan path with
            | Error e -> Alcotest.failf "scan: %s" e
            | Ok r ->
              Alcotest.(check (list (pair string string)))
                "records" records r.Store.Journal.records;
              Alcotest.(check int) "no drops" 0 r.Store.Journal.dropped_bytes));
    Alcotest.test_case "missing file scans as empty" `Quick (fun () ->
        let path = tmp "tg-journal-none.j" in
        if Sys.file_exists path then Sys.remove path;
        match Store.Journal.scan path with
        | Error e -> Alcotest.failf "scan: %s" e
        | Ok r ->
          Alcotest.(check (list (pair string string))) "empty" []
            r.Store.Journal.records);
    Alcotest.test_case "non-journal file is rejected" `Quick (fun () ->
        let path = tmp "tg-journal-bad.j" in
        write_file path "this is not a journal\nr 1 1 00\nxy\n";
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            (match Store.Journal.scan path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "scan accepted a non-journal file");
            match Store.Journal.open_append path with
            | Error _ -> ()
            | Ok (j, _) ->
              Store.Journal.close j;
              Alcotest.fail "open_append accepted a non-journal file"));
    Alcotest.test_case "truncation at every byte offset of the last record"
      `Slow (fun () ->
        let records =
          [ ("alpha", "first value"); ("beta", "second\nvalue"); ("gamma", "third") ]
        in
        with_journal "tg-journal-trunc.j" records (fun path ->
            let full = read_file path in
            (* length of the journal holding only the first two records *)
            let prefix_len =
              with_journal "tg-journal-trunc2.j"
                [ List.nth records 0; List.nth records 1 ]
                (fun p2 -> String.length (read_file p2))
            in
            let cut_path = tmp "tg-journal-cut.j" in
            Fun.protect
              ~finally:(fun () ->
                if Sys.file_exists cut_path then Sys.remove cut_path)
              (fun () ->
                for cut = prefix_len to String.length full do
                  write_file cut_path (String.sub full 0 cut);
                  (* read-only recovery *)
                  (match Store.Journal.scan cut_path with
                  | Error e -> Alcotest.failf "scan at cut %d: %s" cut e
                  | Ok r ->
                    let expect =
                      if cut = String.length full then records
                      else [ List.nth records 0; List.nth records 1 ]
                    in
                    Alcotest.(check (list (pair string string)))
                      (Printf.sprintf "records at cut %d" cut)
                      expect r.Store.Journal.records;
                    Alcotest.(check int)
                      (Printf.sprintf "dropped at cut %d" cut)
                      (if cut = String.length full then 0 else cut - prefix_len)
                      r.Store.Journal.dropped_bytes);
                  (* append-mode recovery must truncate the tail and leave
                     a journal that accepts and returns a fresh record *)
                  match Store.Journal.open_append cut_path with
                  | Error e -> Alcotest.failf "open_append at cut %d: %s" cut e
                  | Ok (j, _) ->
                    Store.Journal.append j ~key:"delta" ~value:"appended";
                    Store.Journal.close j;
                    (match Store.Journal.scan cut_path with
                    | Error e -> Alcotest.failf "rescan at cut %d: %s" cut e
                    | Ok r2 ->
                      let expect =
                        (if cut = String.length full then records
                         else [ List.nth records 0; List.nth records 1 ])
                        @ [ ("delta", "appended") ]
                      in
                      Alcotest.(check (list (pair string string)))
                        (Printf.sprintf "append after cut %d" cut)
                        expect r2.Store.Journal.records)
                done)));
    Alcotest.test_case "truncation inside the magic line is recoverable"
      `Quick (fun () ->
        with_journal "tg-journal-magic.j" [ ("k", "v") ] (fun path ->
            let full = read_file path in
            let cut_path = tmp "tg-journal-magic-cut.j" in
            Fun.protect
              ~finally:(fun () ->
                if Sys.file_exists cut_path then Sys.remove cut_path)
              (fun () ->
                (* a crash can even land mid-magic on a fresh journal *)
                for cut = 0 to 5 do
                  write_file cut_path (String.sub full 0 cut);
                  match Store.Journal.open_append cut_path with
                  | Error e -> Alcotest.failf "open_append at cut %d: %s" cut e
                  | Ok (j, r) ->
                    Alcotest.(check (list (pair string string)))
                      (Printf.sprintf "no records at cut %d" cut)
                      [] r.Store.Journal.records;
                    Store.Journal.append j ~key:"x" ~value:"y";
                    Store.Journal.close j
                done)));
  ]

(* ---- cache facade ---- *)

let cache_tests =
  [
    Alcotest.test_case "find counts hits and misses" `Quick (fun () ->
        match Store.Cache.create ~max_bytes:10_000 () with
        | Error e -> Alcotest.failf "create: %s" e
        | Ok c ->
          Store.Cache.add c ~key:"k" ~value:"v";
          Alcotest.(check (option string)) "hit" (Some "v") (Store.Cache.find c "k");
          Alcotest.(check (option string)) "miss" None (Store.Cache.find c "nope");
          Store.Cache.close c);
    Alcotest.test_case "journal persists entries across reopen" `Quick
      (fun () ->
        let path = tmp "tg-cache-persist.j" in
        if Sys.file_exists path then Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            (match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "create: %s" e
            | Ok c ->
              Store.Cache.add c ~key:"k1" ~value:"v1";
              Store.Cache.add c ~key:"k2" ~value:"v2";
              Store.Cache.add c ~key:"k1" ~value:"v1" (* idempotent: no re-journal *);
              Store.Cache.close c);
            match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "reopen: %s" e
            | Ok c ->
              Alcotest.(check int) "recovered" 2 (Store.Cache.recovered c);
              Alcotest.(check (option string)) "k1" (Some "v1")
                (Store.Cache.find c "k1");
              Alcotest.(check (option string)) "k2" (Some "v2")
                (Store.Cache.find c "k2");
              Store.Cache.close c));
    Alcotest.test_case "reopen tolerates a truncated journal tail" `Quick
      (fun () ->
        let path = tmp "tg-cache-trunc.j" in
        if Sys.file_exists path then Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            (match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "create: %s" e
            | Ok c ->
              Store.Cache.add c ~key:"keep" ~value:"ok";
              Store.Cache.add c ~key:"torn" ~value:"partial";
              Store.Cache.close c);
            (* chop 3 bytes off the tail record *)
            let s = read_file path in
            write_file path (String.sub s 0 (String.length s - 3));
            match Store.Cache.create ~max_bytes:10_000 ~journal:path () with
            | Error e -> Alcotest.failf "reopen: %s" e
            | Ok c ->
              Alcotest.(check (option string)) "keep survives" (Some "ok")
                (Store.Cache.find c "keep");
              Alcotest.(check (option string)) "torn dropped" None
                (Store.Cache.find c "torn");
              Store.Cache.close c));
    Alcotest.test_case "eviction respects the byte budget" `Quick (fun () ->
        (* entries cost 2 + 10 + 64 = 76 bytes; budget fits two *)
        match Store.Cache.create ~max_bytes:160 () with
        | Error e -> Alcotest.failf "create: %s" e
        | Ok c ->
          Store.Cache.add c ~key:"e1" ~value:(String.make 10 'a');
          Store.Cache.add c ~key:"e2" ~value:(String.make 10 'b');
          Store.Cache.add c ~key:"e3" ~value:(String.make 10 'c');
          Alcotest.(check int) "two resident" 2 (Store.Cache.length c);
          Alcotest.(check (option string)) "oldest evicted" None
            (Store.Cache.find c "e1");
          Store.Cache.close c);
  ]

(* ---- the impact loop's store memo: base: and verify: entries ---- *)

module I = Topoguard.Impact

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()).Obs.counters)

let opf_solves () = counter "opf.dc_opf.solves" + counter "opf.float_opf.solves"
let lp_pivots () = counter "lp.exact.pivots" + counter "lp.float.pivots"

(* [f ()] and the OPF solves it ran *)
let delta f =
  let before = opf_solves () in
  let r = f () in
  (r, opf_solves () - before)

let fresh_store ?journal () =
  match Store.Cache.create ?journal () with
  | Ok c -> c
  | Error e -> Alcotest.failf "store: %s" e

let entries store prefix =
  Store.Cache.fold store ~init:[] ~f:(fun acc ~key ~value ->
      if String.starts_with ~prefix key then (key, value) :: acc else acc)

let base_of kind (spec : Grid.Spec.t) =
  match I.base_state kind spec.Grid.Spec.grid with
  | Ok b -> b
  | Error e -> Alcotest.failf "base state: %s" e

(* every field of an outcome, so equal strings mean equal answers *)
let render = function
  | I.Attack_found s ->
    let v = s.I.vector in
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "attack ex=%s in=%s alt=%s buses=%s base=%s thr=%s cost=%s n=%d"
      (ints v.Attack.Vector.excluded) (ints v.Attack.Vector.included)
      (ints v.Attack.Vector.altered) (ints v.Attack.Vector.buses)
      (Q.to_string s.I.base_cost) (Q.to_string s.I.threshold)
      (Option.fold ~none:"-" ~some:Q.to_string s.I.poisoned_cost)
      s.I.candidates
  | I.No_attack { candidates } -> Printf.sprintf "no attack n=%d" candidates
  | I.Base_infeasible e -> "base infeasible: " ^ e

(* the service's settings (closed-form single-line enumeration), as a
   rendered outcome *)
let analyze ?store backend (spec : Grid.Spec.t) base pct =
  let config =
    {
      I.default_config with
      I.backend;
      use_closed_form = true;
      max_topology_changes = Some 1;
      store;
    }
  in
  let scenario = { spec with Grid.Spec.min_increase_pct = pct } in
  render (I.analyze ~config ~scenario ~base ())

let grids () = [ ("5-bus", case5 (), `Case_study); ("14-bus", ieee14 (), `Opf) ]
let backends = [ ("lp", I.Lp_exact); ("factors", I.Fast_factors) ]

(* targets far above the static cost ceiling: the audit prunes every
   candidate, so the base OPF is the only solve an analysis runs *)
let unattainable = [ Q.of_int 100_000; Q.of_int 200_000; Q.of_int 500_000 ]

(* descending attainable targets: each scan stops at or before the
   previous winner, so every candidate it reaches is already verified *)
let attainable = [ q 3 1; q 2 1; q 1 1; q 1 2 ]

(* the analyses on [store] must answer as the store-less ones do;
   returns the OPF solves of each *)
let check_against_uncached ~what ~store backend spec base targets =
  let expected = List.map (analyze backend spec base) targets in
  let got =
    List.map (fun pct -> delta (fun () -> analyze ~store backend spec base pct)) targets
  in
  Alcotest.(check (list string)) (what ^ ": outcomes equal the store-less runs")
    expected (List.map fst got);
  List.map snd got

(* the entries a 5-bus analysis leaves in a store, then [value] stored
   under each of those keys in a fresh one *)
let seeded_store ~value spec base pct =
  let filled = fresh_store () in
  ignore (analyze ~store:filled I.Lp_exact spec base pct);
  let seeded = fresh_store () in
  let keys = List.map fst (entries filled "verify:" @ entries filled "base:") in
  List.iter (fun key -> Store.Cache.add seeded ~key ~value:(value key)) keys;
  (seeded, keys)

let memo_tests =
  [
    Alcotest.test_case "one base OPF per grid and formulation" `Quick (fun () ->
        List.iter
          (fun (gname, spec, kind) ->
            let base = base_of kind spec in
            List.iter
              (fun (bname, backend) ->
                let what = gname ^ " " ^ bname in
                let store = fresh_store () in
                let solves =
                  check_against_uncached ~what ~store backend spec base unattainable
                in
                Alcotest.(check int) (what ^ ": one base solve") 1
                  (List.fold_left ( + ) 0 solves);
                (match
                   check_against_uncached ~what ~store backend spec base attainable
                 with
                | _ :: later ->
                  List.iter
                    (Alcotest.(check int) (what ^ ": later targets solve nothing") 0)
                    later
                | [] -> ());
                Alcotest.(check int) (what ^ ": one base: entry") 1
                  (List.length (entries store "base:")))
              backends)
          (grids ()));
    Alcotest.test_case "a row-permuted copy gets its own base entry" `Quick
      (fun () ->
        let spec = ieee14 () and permuted = permute_spec 3 (ieee14 ()) in
        let store = fresh_store () in
        List.iter
          (fun (bname, backend) ->
            List.iter
              (fun (what, spec) ->
                ignore
                  (check_against_uncached ~what:(what ^ " " ^ bname) ~store backend
                     spec (base_of `Opf spec) [ q 1 1 ]))
              [ ("14-bus", spec); ("permuted", permuted) ])
          backends;
        (* pg is indexed by generator row: the copy never reads the
           original's dispatch *)
        Alcotest.(check int) "two base: entries per formulation" 4
          (List.length (entries store "base:")));
    Alcotest.test_case "an infeasible base is memoised" `Quick (fun () ->
        let spec = case5 () in
        let grid = spec.Grid.Spec.grid in
        let heavy (l : N.load) =
          { l with N.existing = Q.mul (Q.of_int 100) l.N.existing }
        in
        let heavy =
          {
            spec with
            Grid.Spec.grid = { grid with N.loads = Array.map heavy grid.N.loads };
          }
        in
        let base = base_of `Case_study spec in
        List.iter
          (fun (bname, backend) ->
            let store = fresh_store () in
            let expected = analyze backend heavy base (q 3 1) in
            Alcotest.(check bool) (bname ^ ": reported as base infeasible") true
              (String.starts_with ~prefix:"base infeasible" expected);
            let run () = delta (fun () -> analyze ~store backend heavy base (q 3 1)) in
            let first, n1 = run () in
            let second, n2 = run () in
            Alcotest.(check (list string)) (bname ^ ": outcomes") [ expected; expected ]
              [ first; second ];
            Alcotest.(check (pair int int)) (bname ^ ": solved once") (1, 0) (n1, n2);
            Alcotest.(check (list string)) (bname ^ ": stored verdict") [ "infeasible" ]
              (List.map snd (entries store "base:")))
          backends);
    Alcotest.test_case "a reopened journal serves the base entry" `Quick
      (fun () ->
        let path = tmp "tg-base-memo.j" in
        if Sys.file_exists path then Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let spec = case5 () in
            let base = base_of `Case_study spec in
            let run () =
              let store = fresh_store ~journal:path () in
              let pct = List.hd unattainable in
              let r = delta (fun () -> analyze ~store I.Lp_exact spec base pct) in
              Store.Cache.close store;
              r
            in
            let first, n1 = run () in
            let pivots = lp_pivots () in
            let again, n2 = run () in
            Alcotest.(check string) "same outcome" first again;
            Alcotest.(check (pair int int)) "LP solves before and after the reopen" (1, 0)
              (n1, n2);
            Alcotest.(check int) "no LP pivots" pivots (lp_pivots ())));
    Alcotest.test_case "a zero denominator in a stored value is a miss" `Quick
      (fun () ->
        let spec = case5 () in
        let base = base_of `Case_study spec in
        let n_gens = Array.length spec.Grid.Spec.grid.N.gens in
        let value key =
          if String.starts_with ~prefix:"verify:" key then "cost 1/0"
          else String.concat " " ("optimal" :: List.init (1 + n_gens) (fun _ -> "1/0"))
        in
        let seeded, _ = seeded_store ~value spec base (q 3 1) in
        Alcotest.(check string) "outcome equals the store-less run"
          (analyze I.Lp_exact spec base (q 3 1))
          (analyze ~store:seeded I.Lp_exact spec base (q 3 1)));
    Alcotest.test_case "an undecodable entry is replaced" `Quick (fun () ->
        let spec = case5 () in
        let base = base_of `Case_study spec in
        let seeded, keys = seeded_store ~value:(fun _ -> "garbage") spec base (q 3 1) in
        Alcotest.(check bool) "verify: entries to corrupt" true
          (List.exists (String.starts_with ~prefix:"verify:") keys);
        ignore (analyze ~store:seeded I.Lp_exact spec base (q 3 1));
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " replaced") true
              (Store.Cache.find seeded key <> Some "garbage"))
          keys;
        let _, n = delta (fun () -> analyze ~store:seeded I.Lp_exact spec base (q 3 1)) in
        Alcotest.(check int) "the next analysis solves nothing" 0 n);
    Alcotest.test_case "max increase reuses the store" `Quick (fun () ->
        let spec = case5 () in
        let base = base_of `Case_study spec in
        let store = fresh_store () in
        let max_increase store =
          let config = { I.default_config with I.store } in
          Option.fold ~none:"none" ~some:Q.to_string
            (I.max_achievable_increase ~config ~scenario:spec ~base ())
        in
        let uncached = max_increase None in
        let first = max_increase (Some store) in
        let pivots = lp_pivots () in
        let second = max_increase (Some store) in
        Alcotest.(check (list string)) "same maximum" [ uncached; uncached ]
          [ first; second ];
        Alcotest.(check int) "no new LP pivots" pivots (lp_pivots ()));
  ]

let () =
  Alcotest.run "store"
    [
      ("canonical", canonical_tests);
      ("mutation", mutation_tests);
      ("lru", lru_tests);
      ("journal", journal_tests);
      ("cache", cache_tests);
      ("memo", memo_tests);
    ]
