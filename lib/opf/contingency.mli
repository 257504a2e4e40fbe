(** N-1 contingency analysis and security-constrained OPF.

    The paper's Section III-E notes the operator runs OPF "along with
    contingency analysis" after each state-estimation cycle; this module
    supplies that EMS stage.  Post-outage flows are predicted linearly
    with the LODF factors of {!Factors}; the security-constrained variant
    adds post-contingency flow limits (at an emergency rating) to the
    shift-factor OPF. *)

type violation = {
  outage : int;  (** line whose outage causes the problem *)
  overloaded : int;  (** line that exceeds its rating post-outage *)
  post_flow : float;  (** predicted flow on [overloaded] *)
  rating : float;  (** the emergency rating it exceeds *)
}

val screen :
  ?emergency_factor:float ->
  ?jobs:int ->
  Grid.Topology.t ->
  base_flows:float array ->
  violation list
(** Screen all single-line outages of mapped, non-radial lines.
    [emergency_factor] (default 1.2) scales normal ratings to emergency
    ratings, the usual N-1 practice.  [jobs] (default 1) fans the
    independent outages out over a {!Pool} of that many domains; the
    violation list is deterministic — outages in screening order, lines
    ascending within an outage — for any [jobs]. *)

val is_n1_secure :
  ?emergency_factor:float ->
  ?jobs:int ->
  Grid.Topology.t ->
  base_flows:float array ->
  bool

val sc_opf :
  ?emergency_factor:float ->
  ?contingencies:int list ->
  ?loads:Numeric.Rat.t array ->
  Grid.Topology.t ->
  Dc_opf.outcome
(** Security-constrained OPF: minimise cost subject to base-case limits
    and, for every contingency (default: all mapped non-radial lines),
    post-outage flows within emergency ratings, linearised with LODF.
    Built by {!Float_opf.solve_with}: each post-contingency row is the
    float row [ptdf_row i + d * ptdf_row k] ([d] the LODF of outage [k]
    onto line [i]), rounded and screened like a base row, and the LP is
    solved by {!Certify}.  The cost and dispatch are therefore the exact
    optimum of that rounded LP; since it is {!Float_opf.solve}'s LP plus
    the post-contingency rows, its cost is never below the plain OPF's. *)
