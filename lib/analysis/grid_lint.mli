(** Static validation of {!Grid.Spec.t} input data, as structured
    diagnostics rather than the fail-fast string of
    [Grid.Network.validate].  Intended to run on files parsed with
    [Grid.Spec.parse ~validate:false], so every defect in a broken file
    is reported at once.

    Error codes: [bus-range], [self-loop], [nonpositive-admittance],
    [nonpositive-capacity], [gen-bounds], [duplicate-generator],
    [duplicate-load], [load-bounds], [meas-count], [islanded-bus], [reference-bus],
    [capacity-shortfall], [forced-overgeneration].
    Warning codes: [duplicate-line], [negative-pmin], [load-outside-range].
    Info codes: [no-attacker-resources]. *)

val check : Grid.Spec.t -> Diagnostic.t list
(** Bus and line indices in messages are 1-based, matching the file
    format and the paper. *)
