module Q = Numeric.Rat

type row = {
  terms : (int * Q.t) list;
  lo : Q.t option;
  hi : Q.t option;
}

type stats = {
  rows_eliminated : int;
  bounds_tightened : int;
  vars_fixed : int;
}

type outcome =
  | Reduced of {
      lo : Q.t option array;
      hi : Q.t option array;
      rows : row list;
      fixed : (int * Q.t) list;
      stats : stats;
    }
  | Infeasible of { reason : string; stats : stats }

(* merge repeated variables, drop zero coefficients, sort *)
let canon_terms terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      let c0 = try Hashtbl.find tbl v with Not_found -> Q.zero in
      Hashtbl.replace tbl v (Q.add c0 c))
    terms;
  Hashtbl.fold
    (fun v c acc -> if Q.is_zero c then acc else (v, c) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* proportionality key: terms divided by the leading coefficient *)
let monic_key terms =
  match terms with
  | [] -> ""
  | (_, c0) :: _ ->
    String.concat ";"
      (List.map
         (fun (v, c) -> Printf.sprintf "%d:%s" v (Q.to_string (Q.div c c0)))
         terms)

type cell = {
  mutable cterms : (int * Q.t) list;
  mutable clo : Q.t option;
  mutable chi : Q.t option;
  mutable dead : bool;
}

exception Infeasible_at of string

let run ~n_vars ~lo ~hi input_rows =
  let lo = Array.copy lo and hi = Array.copy hi in
  let fixed : Q.t option array = Array.make n_vars None in
  let rows_eliminated = ref 0
  and bounds_tightened = ref 0
  and vars_fixed = ref 0 in
  let stats () =
    {
      rows_eliminated = !rows_eliminated;
      bounds_tightened = !bounds_tightened;
      vars_fixed = !vars_fixed;
    }
  in
  let cells =
    Array.of_list
      (List.map
         (fun r ->
           {
             cterms = canon_terms r.terms;
             clo = r.lo;
             chi = r.hi;
             dead = false;
           })
         input_rows)
  in
  let changed = ref true in
  let kill c reason_counted =
    c.dead <- true;
    if reason_counted then incr rows_eliminated;
    changed := true
  in
  let tighten_lo v b =
    let improves = match lo.(v) with None -> true | Some l0 -> Q.( > ) b l0 in
    if improves then begin
      lo.(v) <- Some b;
      incr bounds_tightened;
      changed := true
    end
  in
  let tighten_hi v b =
    let improves = match hi.(v) with None -> true | Some h0 -> Q.( < ) b h0 in
    if improves then begin
      hi.(v) <- Some b;
      incr bounds_tightened;
      changed := true
    end
  in
  let check_boxes () =
    for v = 0 to n_vars - 1 do
      match (lo.(v), hi.(v)) with
      | Some l, Some h ->
        if Q.( > ) l h then
          raise
            (Infeasible_at
               (Printf.sprintf "variable %d has empty bounds [%s, %s]" v
                  (Q.to_string l) (Q.to_string h)))
        else if Q.compare l h = 0 && fixed.(v) = None then begin
          fixed.(v) <- Some l;
          incr vars_fixed;
          changed := true
        end
      | _ -> ()
    done
  in
  let substitute_fixed c =
    let shift = ref Q.zero and any = ref false in
    let kept =
      List.filter
        (fun (v, coef) ->
          match fixed.(v) with
          | Some x ->
            shift := Q.add !shift (Q.mul coef x);
            any := true;
            false
          | None -> true)
        c.cterms
    in
    if !any then begin
      c.cterms <- kept;
      c.clo <- Option.map (fun b -> Q.sub b !shift) c.clo;
      c.chi <- Option.map (fun b -> Q.sub b !shift) c.chi;
      changed := true
    end
  in
  let handle_structural c =
    match c.cterms with
    | [] ->
      (* 0 within [lo, hi]: satisfied -> drop, violated -> infeasible *)
      let lo_ok = match c.clo with None -> true | Some l -> Q.sign l <= 0 in
      let hi_ok = match c.chi with None -> true | Some h -> Q.sign h >= 0 in
      if lo_ok && hi_ok then kill c true
      else raise (Infeasible_at "constant row violates its bounds")
    | [ (v, coef) ] ->
      let l = Option.map (fun b -> Q.div b coef) c.clo
      and h = Option.map (fun b -> Q.div b coef) c.chi in
      let l, h = if Q.sign coef > 0 then (l, h) else (h, l) in
      Option.iter (tighten_lo v) l;
      Option.iter (tighten_hi v) h;
      kill c true
    | _ -> ()
  in
  (* implied activity range of a row over the variable box *)
  let activity terms =
    List.fold_left
      (fun (amin, amax) (v, coef) ->
        let bound_lo, bound_hi =
          if Q.sign coef > 0 then (lo.(v), hi.(v)) else (hi.(v), lo.(v))
        in
        ( (match (amin, bound_lo) with
          | Some a, Some b -> Some (Q.add a (Q.mul coef b))
          | _ -> None),
          match (amax, bound_hi) with
          | Some a, Some b -> Some (Q.add a (Q.mul coef b))
          | _ -> None ))
      (Some Q.zero, Some Q.zero)
      terms
  in
  let handle_activity c =
    let amin, amax = activity c.cterms in
    (match (c.clo, amax) with
    | Some l, Some amax when Q.( < ) amax l ->
      raise
        (Infeasible_at
           (Printf.sprintf "row activity can reach at most %s but must be >= %s"
              (Q.to_string amax) (Q.to_string l)))
    | _ -> ());
    (match (c.chi, amin) with
    | Some h, Some amin when Q.( > ) amin h ->
      raise
        (Infeasible_at
           (Printf.sprintf "row activity is at least %s but must be <= %s"
              (Q.to_string amin) (Q.to_string h)))
    | _ -> ());
    let lo_redundant =
      match c.clo with
      | None -> true
      | Some l -> ( match amin with Some a -> Q.( >= ) a l | None -> false)
    and hi_redundant =
      match c.chi with
      | None -> true
      | Some h -> ( match amax with Some a -> Q.( <= ) a h | None -> false)
    in
    if lo_redundant && hi_redundant then kill c true
  in
  let merge_duplicates () =
    let reps : (string, cell) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        if (not c.dead) && c.cterms <> [] then
          let key = monic_key c.cterms in
          match Hashtbl.find_opt reps key with
          | None -> Hashtbl.replace reps key c
          | Some rep ->
            (* c = f * rep with f = c0 / rep0 *)
            let _, c0 = List.hd c.cterms and _, rep0 = List.hd rep.cterms in
            let f = Q.div c0 rep0 in
            let l = Option.map (fun b -> Q.div b f) c.clo
            and h = Option.map (fun b -> Q.div b f) c.chi in
            let l, h = if Q.sign f > 0 then (l, h) else (h, l) in
            (match l with
            | Some l ->
              let improves =
                match rep.clo with None -> true | Some l0 -> Q.( > ) l l0
              in
              if improves then rep.clo <- Some l
            | None -> ());
            (match h with
            | Some h ->
              let improves =
                match rep.chi with None -> true | Some h0 -> Q.( < ) h h0
              in
              if improves then rep.chi <- Some h
            | None -> ());
            (match (rep.clo, rep.chi) with
            | Some l, Some h when Q.( > ) l h ->
              raise
                (Infeasible_at "proportional rows have contradictory bounds")
            | _ -> ());
            kill c true)
      cells
  in
  match
    (* a row can be recorded with its own bounds crossed; the passes below
       keep a row's bound gap (substitution shifts both, merging checks) *)
    Array.iter
      (fun c ->
        match (c.clo, c.chi) with
        | Some l, Some h when Q.( > ) l h ->
          raise (Infeasible_at "row has contradictory bounds")
        | _ -> ())
      cells;
    let passes = ref 0 in
    while !changed && !passes < 50 do
      changed := false;
      incr passes;
      check_boxes ();
      Array.iter
        (fun c ->
          if not c.dead then begin
            substitute_fixed c;
            handle_structural c
          end)
        cells;
      merge_duplicates ();
      Array.iter
        (fun c -> if (not c.dead) && c.cterms <> [] then handle_activity c)
        cells
    done
  with
  | () ->
    let rows =
      Array.to_list cells
      |> List.filter_map (fun c ->
             if c.dead then None
             else Some { terms = c.cterms; lo = c.clo; hi = c.chi })
    in
    let fixed_list =
      List.filter_map
        (fun v -> Option.map (fun x -> (v, x)) fixed.(v))
        (List.init n_vars Fun.id)
    in
    Reduced { lo; hi; rows; fixed = fixed_list; stats = stats () }
  | exception Infeasible_at reason -> Infeasible { reason; stats = stats () }
