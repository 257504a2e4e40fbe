module M = Linalg.Mat
module Lu = Linalg.Lu
module Q = Numeric.Rat
module N = Grid.Network

type line = {
  from_bus : int;
  to_bus : int;
  resistance : float;
  reactance : float;
  charging : float;
}

type bus_kind =
  | Slack of { v : float }
  | Pv of { p : float; v : float }
  | Pq of { p : float; q : float }

type network = { n_buses : int; lines : line array; buses : bus_kind array }

type solution = {
  vm : float array;
  va : float array;
  p_injection : float array;
  q_injection : float array;
  p_from : float array;
  p_to : float array;
  losses : float;
  iterations : int;
}

let of_dc ?(r_ratio = 0.1) ?(q_ratio = 0.25) ~gen (grid : N.t) =
  let b = grid.N.n_buses in
  let lines =
    Array.map
      (fun (ln : N.line) ->
        let x = 1.0 /. Q.to_float ln.N.admittance in
        {
          from_bus = ln.N.from_bus;
          to_bus = ln.N.to_bus;
          resistance = r_ratio *. x;
          reactance = x;
          charging = 0.0;
        })
      (Array.of_list
         (List.filter
            (fun (ln : N.line) -> ln.N.in_true_topology)
            (Array.to_list grid.N.lines)))
  in
  let load_p = Array.map Q.to_float (N.bus_demand grid) in
  let buses =
    Array.init b (fun j ->
        let p = Q.to_float gen.(j) -. load_p.(j) in
        if j = 0 then Slack { v = 1.0 }
        else if N.gen_at grid j <> None then Pv { p; v = 1.0 }
        else Pq { p; q = -.q_ratio *. load_p.(j) })
  in
  { n_buses = b; lines; buses }

(* bus admittance matrix as (G, B) float matrices *)
let ybus net =
  let n = net.n_buses in
  let g = M.create n n and b = M.create n n in
  Array.iter
    (fun ln ->
      let z2 = (ln.resistance ** 2.0) +. (ln.reactance ** 2.0) in
      let gs = ln.resistance /. z2 and bs = -.ln.reactance /. z2 in
      let f = ln.from_bus and t = ln.to_bus in
      M.set g f f (M.get g f f +. gs);
      M.set b f f (M.get b f f +. bs +. (ln.charging /. 2.0));
      M.set g t t (M.get g t t +. gs);
      M.set b t t (M.get b t t +. bs +. (ln.charging /. 2.0));
      M.set g f t (M.get g f t -. gs);
      M.set b f t (M.get b f t -. bs);
      M.set g t f (M.get g t f -. gs);
      M.set b t f (M.get b t f -. bs))
    net.lines;
  (g, b)

let injections net gmat bmat vm va =
  let n = net.n_buses in
  let p = Array.make n 0.0 and q = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let gik = M.get gmat i k and bik = M.get bmat i k in
      if gik <> 0.0 || bik <> 0.0 then begin
        let th = va.(i) -. va.(k) in
        p.(i) <-
          p.(i) +. (vm.(i) *. vm.(k) *. ((gik *. cos th) +. (bik *. sin th)));
        q.(i) <-
          q.(i) +. (vm.(i) *. vm.(k) *. ((gik *. sin th) -. (bik *. cos th)))
      end
    done
  done;
  (p, q)

let solve ?(tolerance = 1e-8) ?(max_iterations = 30) net =
  let n = net.n_buses in
  let gmat, bmat = ybus net in
  let vm = Array.make n 1.0 and va = Array.make n 0.0 in
  Array.iteri
    (fun j k ->
      match k with
      | Slack { v } | Pv { p = _; v } -> vm.(j) <- v
      | Pq _ -> ())
    net.buses;
  (* unknowns: theta for all non-slack buses, V for PQ buses *)
  let theta_idx =
    Array.of_list
      (List.filter
         (fun j -> match net.buses.(j) with Slack _ -> false | _ -> true)
         (List.init n Fun.id))
  in
  let v_idx =
    Array.of_list
      (List.filter
         (fun j -> match net.buses.(j) with Pq _ -> true | _ -> false)
         (List.init n Fun.id))
  in
  let nth = Array.length theta_idx and nv = Array.length v_idx in
  let dim = nth + nv in
  let target_p j =
    match net.buses.(j) with Pv { p; _ } | Pq { p; _ } -> p | Slack _ -> 0.0
  in
  let target_q j = match net.buses.(j) with Pq { q; _ } -> q | _ -> 0.0 in
  let rec iterate it =
    if it > max_iterations then Error "AC power flow did not converge"
    else begin
      let p, q = injections net gmat bmat vm va in
      (* mismatches *)
      let mis = Array.make dim 0.0 in
      Array.iteri (fun r j -> mis.(r) <- target_p j -. p.(j)) theta_idx;
      Array.iteri (fun r j -> mis.(nth + r) <- target_q j -. q.(j)) v_idx;
      let worst = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 mis in
      if worst < tolerance then begin
        let p_from = Array.make (Array.length net.lines) 0.0 in
        let p_to = Array.make (Array.length net.lines) 0.0 in
        Array.iteri
          (fun i ln ->
            let z2 = (ln.resistance ** 2.0) +. (ln.reactance ** 2.0) in
            let gs = ln.resistance /. z2 and bs = -.ln.reactance /. z2 in
            let f = ln.from_bus and t = ln.to_bus in
            let thft = va.(f) -. va.(t) in
            (* P_from = Vf^2 g - Vf Vt (g cos + b sin) with y = g + jb *)
            p_from.(i) <-
              (vm.(f) *. vm.(f) *. gs)
              -. (vm.(f) *. vm.(t) *. ((gs *. cos thft) +. (bs *. sin thft)));
            p_to.(i) <-
              (vm.(t) *. vm.(t) *. gs)
              -. (vm.(t) *. vm.(f) *. ((gs *. cos thft) -. (bs *. sin thft))))
          net.lines;
        let losses = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i x -> x +. p_to.(i)) p_from) in
        Ok
          {
            vm = Array.copy vm;
            va = Array.copy va;
            p_injection = p;
            q_injection = q;
            p_from;
            p_to;
            losses;
            iterations = it;
          }
      end
      else begin
        (* dense Jacobian *)
        let jac = M.create dim dim in
        let dp_dth i k =
          if i = k then -.q.(i) -. (M.get bmat i i *. vm.(i) *. vm.(i))
          else
            let th = va.(i) -. va.(k) in
            vm.(i) *. vm.(k)
            *. ((M.get gmat i k *. sin th) -. (M.get bmat i k *. cos th))
        in
        let dp_dv i k =
          if i = k then (p.(i) /. vm.(i)) +. (M.get gmat i i *. vm.(i))
          else
            let th = va.(i) -. va.(k) in
            vm.(i) *. ((M.get gmat i k *. cos th) +. (M.get bmat i k *. sin th))
        in
        let dq_dth i k =
          if i = k then p.(i) -. (M.get gmat i i *. vm.(i) *. vm.(i))
          else
            let th = va.(i) -. va.(k) in
            -.vm.(i) *. vm.(k)
            *. ((M.get gmat i k *. cos th) +. (M.get bmat i k *. sin th))
        in
        let dq_dv i k =
          if i = k then (q.(i) /. vm.(i)) -. (M.get bmat i i *. vm.(i))
          else
            let th = va.(i) -. va.(k) in
            vm.(i) *. ((M.get gmat i k *. sin th) -. (M.get bmat i k *. cos th))
        in
        Array.iteri
          (fun r i ->
            Array.iteri (fun c k -> M.set jac r c (dp_dth i k)) theta_idx;
            Array.iteri (fun c k -> M.set jac r (nth + c) (dp_dv i k)) v_idx)
          theta_idx;
        Array.iteri
          (fun r i ->
            Array.iteri (fun c k -> M.set jac (nth + r) c (dq_dth i k)) theta_idx;
            Array.iteri
              (fun c k -> M.set jac (nth + r) (nth + c) (dq_dv i k))
              v_idx)
          v_idx;
        match Lu.solve_vec jac mis with
        | exception Lu.Singular -> Error "singular Jacobian"
        | dx ->
          Array.iteri (fun r j -> va.(j) <- va.(j) +. dx.(r)) theta_idx;
          Array.iteri (fun r j -> vm.(j) <- vm.(j) +. dx.(nth + r)) v_idx;
          iterate (it + 1)
      end
    end
  in
  iterate 1
