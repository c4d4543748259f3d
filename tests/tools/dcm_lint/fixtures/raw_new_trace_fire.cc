// Fixture: no-raw-new-in-hot-path positive — tracing runs per sampled
// request (Tracer::maybe_sample opens a context in the TraceStore, and
// finalize seals its spans there), so every Tracer and TraceStore member is
// a seed. A per-trace heap record in either fires; the post-run report
// fold, which nothing hot calls, stays silent.
struct Record {
  int id = 0;
};

class Tracer {
 public:
  int maybe_sample(int id);
};

int Tracer::maybe_sample(int id) {
  Record* record = new Record{id};
  const int out = record->id;
  delete record;
  return out;
}

class TraceStore {
 public:
  int seal(int id);
};

int TraceStore::seal(int id) {
  Record* record = new Record{id};
  const int out = record->id;
  delete record;
  return out;
}

int fold_report(int id) {
  Record* record = new Record{id};
  const int out = record->id;
  delete record;
  return out;
}
