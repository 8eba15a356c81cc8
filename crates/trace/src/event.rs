//! The event model: what one recorded span *is*.

/// Which node-level primitive a task span executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrimitiveKind {
    /// Sum-marginalization of a clique onto a separator.
    Marginalize,
    /// Max-marginalization (max-product propagation).
    MaxMarginalize,
    /// Separator division (new message / old message).
    Divide,
    /// Extension of a separator onto a clique domain.
    Extend,
    /// Pointwise multiplication into a clique.
    Multiply,
}

impl PrimitiveKind {
    /// Short lowercase name, used in exported trace event names.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveKind::Marginalize => "marginalize",
            PrimitiveKind::MaxMarginalize => "max-marginalize",
            PrimitiveKind::Divide => "divide",
            PrimitiveKind::Extend => "extend",
            PrimitiveKind::Multiply => "multiply",
        }
    }
}

/// What a span covers. Instant-like events (a partition decision, a
/// fetch, a steal) are recorded with `start_ns == end_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One (sub)task execution: the destination buffer it wrote, the
    /// primitive it ran, its weight (table entries processed), and —
    /// for a subtask of a δ-partitioned task — its part index
    /// (`None` for an unpartitioned full-table execution).
    Task {
        /// Destination buffer index in the task graph.
        buffer: u32,
        /// The primitive executed.
        primitive: PrimitiveKind,
        /// Table entries processed (the scheduler's weight unit).
        weight: u64,
        /// Part index within a partitioned task, `None` if whole.
        part: Option<u32>,
    },
    /// The Partition module split a task into `parts` subtasks.
    Partition {
        /// Destination buffer of the split task.
        buffer: u32,
        /// Number of subtasks created (including the combiner).
        parts: u32,
    },
    /// The Fetch module popped a unit from this thread's own list.
    Fetch,
    /// A successful steal from `victim`'s ready list.
    Steal {
        /// The thread stolen from.
        victim: u32,
    },
    /// A contiguous period spent spinning with nothing to run.
    IdleSpin,
    /// A serving shard checked an arena out of its cache (`fresh` on a
    /// cold-start allocation, warm reuse otherwise).
    ArenaCheckout {
        /// Whether the checkout allocated a fresh arena.
        fresh: bool,
    },
    /// One whole scheduler job (a propagation) on a pool.
    Job {
        /// Static tasks in the job's graph.
        tasks: u32,
    },
    /// One serving query (reset + propagate + marginalize).
    Query {
        /// The shard that answered it.
        shard: u32,
    },
    /// A kernel-plan cache counter snapshot, recorded as an instant on
    /// the control row (e.g. whenever the serving runtime takes a
    /// stats snapshot), so exported timelines carry the cache's
    /// hit/miss history alongside the scheduler spans.
    PlanCache {
        /// δ-subrange lookups answered from the memo.
        hits: u64,
        /// Lookups that had to compile (or re-key) a plan.
        misses: u64,
        /// Distinct interned plans at snapshot time.
        interned: u64,
    },
    /// A fault-tolerance counter snapshot, recorded as an instant on
    /// the control row alongside stats snapshots so exported timelines
    /// carry the shed/cancel/panic/restart history of the serving
    /// runtime next to the scheduler spans.
    Faults {
        /// Queries shed at dequeue with an already-expired deadline.
        shed: u64,
        /// In-flight jobs stopped early by a fired deadline token.
        cancelled: u64,
        /// Queries failed by a worker panic (or thread death).
        panics: u64,
        /// Dead pool worker threads reaped and respawned.
        restarts: u64,
    },
}

impl SpanKind {
    /// The category string used in Chrome-trace export (`cat` field).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Task { .. } => "task",
            SpanKind::Partition { .. } => "partition",
            SpanKind::Fetch => "fetch",
            SpanKind::Steal { .. } => "steal",
            SpanKind::IdleSpin => "idle",
            SpanKind::ArenaCheckout { .. } => "arena",
            SpanKind::Job { .. } => "job",
            SpanKind::Query { .. } => "query",
            SpanKind::PlanCache { .. } => "plan-cache",
            SpanKind::Faults { .. } => "faults",
        }
    }
}

/// One recorded span: a kind plus `[start_ns, end_ns]` on the sink's
/// shared clock, and the nesting depth it was recorded at (0 = top
/// level for its thread). Fixed-size and `Copy` so the ring buffer
/// never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, nanoseconds since the sink's clock epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the sink's clock epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Nesting depth within the recording thread at record time.
    pub depth: u8,
}

impl TraceEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}
