(** SLO accounting: serving health derived from a raw {!Snapshot}.

    The paper's operational question is whether hard deadlines are met
    at minimum energy; for a live [dcn serve] session that turns into a
    handful of derived indicators — admission outcome rates, per-event
    apply latency quantiles, the interval reuse ratio of the
    incremental re-solve, worst-case deadline slack, energy against its
    lower bound, Frank–Wolfe work and allocation pressure.  This module
    owns the derivations so the snapshot stream, the Prometheus file
    and the [dcn stats] table all report the same numbers. *)

type t = {
  events : int;  (** events applied ([serve.events]) *)
  committed : int;
  degraded : int;
  rejected : int;
  commit_rate : float option;
      (** committed / (committed + degraded + rejected); [None] before
          any admission outcome *)
  apply_count : int;  (** samples in the apply-latency histogram *)
  apply_p50_ms : float option;
  apply_p90_ms : float option;
  apply_p99_ms : float option;
  resolved_intervals : int;
      (** intervals re-solved from scratch
          ([relaxation.intervals_solved]) *)
  reused_intervals : int;
      (** intervals reused verbatim ([relaxation.intervals_reused]) *)
  reuse_ratio : float option;
      (** reused / (resolved + reused); [None] before any resolve *)
  min_slack : float option;
      (** minimum (deadline - session clock) across committed flows, in
          the instance's time units — how close the tightest committed
          flow is to its deadline; negative would mean a flow still
          committed past its deadline *)
  energy : float option;  (** current schedule energy ([serve.energy]) *)
  energy_lb : float option;  (** fractional lower bound *)
  energy_gap : float option;  (** (energy - lb) / lb when lb > 0 *)
  fw_iterations : int;  (** summed over the [engine] label *)
  minor_words_per_event : float option;  (** GC allocation per apply *)
  certified : int;  (** epochs re-certified clean *)
  uncertified : int;  (** epochs where certification failed *)
}

val of_snapshot : Snapshot.t -> t

val to_json : t -> Dcn_engine.Json.t
(** Flat object; [None] fields are emitted as [null]. *)

val rows : t -> string list list
(** [[indicator; value]] rows for an aligned table — the [dcn stats]
    rendering shape ([None] renders as ["-"]). *)
