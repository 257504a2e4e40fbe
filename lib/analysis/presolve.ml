module type NUM = sig
  type t

  val zero : t
  val compare : t -> t -> int
  val add : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val negligible : t -> bool
  val margin : t
  val to_string : t -> string
end

module type S = sig
  type num

  type row = {
    terms : (int * num) list;
    lo : num option;
    hi : num option;
  }

  type stats = {
    rows_eliminated : int;
    bounds_tightened : int;
    vars_fixed : int;
  }

  type outcome =
    | Reduced of {
        lo : num option array;
        hi : num option array;
        rows : row list;
        fixed : (int * num) list;
        stats : stats;
      }
    | Infeasible of { reason : string; stats : stats }

  val run : n_vars:int -> lo:num option array -> hi:num option array ->
    row list -> outcome
end

module Make (N : NUM) : S with type num = N.t = struct
  type num = N.t

  type row = {
    terms : (int * num) list;
    lo : num option;
    hi : num option;
  }

  type stats = {
    rows_eliminated : int;
    bounds_tightened : int;
    vars_fixed : int;
  }

  type outcome =
    | Reduced of {
        lo : num option array;
        hi : num option array;
        rows : row list;
        fixed : (int * num) list;
        stats : stats;
      }
    | Infeasible of { reason : string; stats : stats }

  let ( <? ) a b = N.compare a b < 0
  let ( >? ) a b = N.compare a b > 0
  let sub a b = N.add a (N.neg b)

  (* merge repeated variables, drop negligible coefficients, sort *)
  let canon_terms terms =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, c) ->
        let c0 = try Hashtbl.find tbl v with Not_found -> N.zero in
        Hashtbl.replace tbl v (N.add c0 c))
      terms;
    Hashtbl.fold
      (fun v c acc -> if N.negligible c then acc else (v, c) :: acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* proportionality key: terms divided by the leading coefficient *)
  let monic_key terms =
    match terms with
    | [] -> ""
    | (_, c0) :: _ ->
      String.concat ";"
        (List.map
           (fun (v, c) -> Printf.sprintf "%d:%s" v (N.to_string (N.div c c0)))
           terms)

  type cell = {
    mutable cterms : (int * num) list;
    mutable clo : num option;
    mutable chi : num option;
    mutable dead : bool;
  }

  exception Infeasible_at of string

  let run ~n_vars ~lo ~hi input_rows =
    let lo = Array.copy lo and hi = Array.copy hi in
    let fixed : num option array = Array.make n_vars None in
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
             { cterms = canon_terms r.terms; clo = r.lo; chi = r.hi; dead = false })
           input_rows)
    in
    let changed = ref true in
    let kill c reason_counted =
      c.dead <- true;
      if reason_counted then incr rows_eliminated;
      changed := true
    in
    let tighten_lo v b =
      let improves = match lo.(v) with None -> true | Some l0 -> b >? l0 in
      if improves then begin
        lo.(v) <- Some b;
        incr bounds_tightened;
        changed := true
      end
    in
    let tighten_hi v b =
      let improves = match hi.(v) with None -> true | Some h0 -> b <? h0 in
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
          if l >? N.add h N.margin then
            raise
              (Infeasible_at
                 (Printf.sprintf "variable %d has empty bounds [%s, %s]" v
                    (N.to_string l) (N.to_string h)))
          else if N.compare l h = 0 && fixed.(v) = None then begin
            fixed.(v) <- Some l;
            incr vars_fixed;
            changed := true
          end
        | _ -> ()
      done
    in
    let substitute_fixed c =
      let shift = ref N.zero and any = ref false in
      let kept =
        List.filter
          (fun (v, coef) ->
            match fixed.(v) with
            | Some x ->
              shift := N.add !shift (N.mul coef x);
              any := true;
              false
            | None -> true)
          c.cterms
      in
      if !any then begin
        c.cterms <- kept;
        c.clo <- Option.map (fun b -> sub b !shift) c.clo;
        c.chi <- Option.map (fun b -> sub b !shift) c.chi;
        changed := true
      end
    in
    let handle_structural c =
      match c.cterms with
      | [] ->
        (* 0 within [lo, hi]?  Comfortably violated -> infeasible;
           comfortably satisfied -> drop; the in-between float sliver is
           left for the simplex to judge with its own epsilon *)
        let lo_ok = match c.clo with None -> true | Some l -> N.compare l N.zero <= 0 in
        let hi_ok = match c.chi with None -> true | Some h -> N.compare h N.zero >= 0 in
        if lo_ok && hi_ok then kill c true
        else
          let beyond =
            (match c.clo with Some l -> l >? N.margin | None -> false)
            || match c.chi with Some h -> h <? N.neg N.margin | None -> false
          in
          if beyond then
            raise (Infeasible_at "constant row violates its bounds")
      | [ (v, coef) ] ->
        let l = Option.map (fun b -> N.div b coef) c.clo
        and h = Option.map (fun b -> N.div b coef) c.chi in
        let l, h = if N.compare coef N.zero > 0 then (l, h) else (h, l) in
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
            if N.compare coef N.zero > 0 then (lo.(v), hi.(v)) else (hi.(v), lo.(v))
          in
          ( (match (amin, bound_lo) with
            | Some a, Some b -> Some (N.add a (N.mul coef b))
            | _ -> None),
            match (amax, bound_hi) with
            | Some a, Some b -> Some (N.add a (N.mul coef b))
            | _ -> None ))
        (Some N.zero, Some N.zero)
        terms
    in
    let handle_activity c =
      let amin, amax = activity c.cterms in
      (match (c.clo, amax) with
      | Some l, Some amax when amax <? sub l N.margin ->
        raise
          (Infeasible_at
             (Printf.sprintf
                "row activity can reach at most %s but must be >= %s"
                (N.to_string amax) (N.to_string l)))
      | _ -> ());
      (match (c.chi, amin) with
      | Some h, Some amin when amin >? N.add h N.margin ->
        raise
          (Infeasible_at
             (Printf.sprintf
                "row activity is at least %s but must be <= %s"
                (N.to_string amin) (N.to_string h)))
      | _ -> ());
      let lo_redundant =
        match c.clo with
        | None -> true
        | Some l -> (
          match amin with Some a -> N.compare a (N.add l N.margin) >= 0 | None -> false)
      and hi_redundant =
        match c.chi with
        | None -> true
        | Some h -> (
          match amax with Some a -> N.compare a (sub h N.margin) <= 0 | None -> false)
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
              let f = N.div c0 rep0 in
              let l = Option.map (fun b -> N.div b f) c.clo
              and h = Option.map (fun b -> N.div b f) c.chi in
              let l, h = if N.compare f N.zero > 0 then (l, h) else (h, l) in
              (match l with
              | Some l ->
                let improves =
                  match rep.clo with None -> true | Some l0 -> l >? l0
                in
                if improves then rep.clo <- Some l
              | None -> ());
              (match h with
              | Some h ->
                let improves =
                  match rep.chi with None -> true | Some h0 -> h <? h0
                in
                if improves then rep.chi <- Some h
              | None -> ());
              (match (rep.clo, rep.chi) with
              | Some l, Some h when l >? N.add h N.margin ->
                raise
                  (Infeasible_at
                     "proportional rows have contradictory bounds")
              | _ -> ());
              kill c true)
        cells
    in
    match
      (* Lp merges constraints on one expression into one row, so a row
         can arrive with its own bounds crossed; the passes below keep a
         row's bound gap (substitution shifts both, merging checks) *)
      Array.iter
        (fun c ->
          match (c.clo, c.chi) with
          | Some l, Some h when l >? N.add h N.margin ->
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
end

module Exact = Make (struct
  include Numeric.Rat

  let negligible = is_zero
  let margin = zero
end)

module Float = Make (struct
  type t = float

  let zero = 0.0
  let compare = Float.compare
  let add = ( +. )
  let mul = ( *. )
  let div = ( /. )
  let neg = ( ~-. )
  let negligible c = Float.abs c < 1e-12

  (* three orders above the simplex epsilon (1e-9): presolve only decides
     cases the float simplex could not plausibly decide the other way *)
  let margin = 1e-6
  let to_string = Printf.sprintf "%.17g"
end)
