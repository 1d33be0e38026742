/**
 * @file
 * Graph::verify: three read-only analysis passes over the channel
 * endpoint tables and operator port tables, plus the text and JSON
 * finding renderers. Findings are emitted in deterministic
 * graph order (ops, then channels, in creation order), so verifier
 * output is replay-stable like everything else in the simulator.
 */
#include "verify/verifier.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dam/channel.hh"
#include "obs/json.hh"
#include "ops/graph.hh"

namespace step::verify {

const char*
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

size_t
VerifyReport::errors() const
{
    size_t n = 0;
    for (const Finding& f : findings)
        n += f.severity == Severity::Error;
    return n;
}

size_t
VerifyReport::warnings() const
{
    return findings.size() - errors();
}

void
VerifyReport::renderText(std::ostream& os) const
{
    for (const Finding& f : findings) {
        os << severityName(f.severity) << "[" << f.ruleId << "]";
        if (!f.opName.empty())
            os << " op '" << f.opName << "'";
        if (!f.channelName.empty())
            os << " channel '" << f.channelName << "'";
        os << ": " << f.witness << "\n";
        if (!f.hint.empty())
            os << "    hint: " << f.hint << "\n";
    }
    os << findings.size() << " finding(s): " << errors() << " error(s), "
       << warnings() << " warning(s) over " << opsChecked << " op(s), "
       << channelsChecked << " channel(s)\n";
}

std::string
VerifyReport::toText() const
{
    std::ostringstream os;
    renderText(os);
    return os.str();
}

std::string
VerifyReport::toJson() const
{
    std::string out = "{\"findings\":[";
    bool first = true;
    for (const Finding& f : findings) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"severity\":\"";
        out += severityName(f.severity);
        out += "\",\"ruleId\":\"";
        obs::appendJsonEscaped(out, f.ruleId);
        out += "\",\"op\":\"";
        obs::appendJsonEscaped(out, f.opName);
        out += "\",\"channel\":\"";
        obs::appendJsonEscaped(out, f.channelName);
        out += "\",\"witness\":\"";
        obs::appendJsonEscaped(out, f.witness);
        out += "\",\"hint\":\"";
        obs::appendJsonEscaped(out, f.hint);
        out += "\"}";
    }
    out += "],\"errors\":" + std::to_string(errors()) +
           ",\"warnings\":" + std::to_string(warnings()) +
           ",\"opsChecked\":" + std::to_string(opsChecked) +
           ",\"channelsChecked\":" + std::to_string(channelsChecked) + "}";
    return out;
}

namespace {

/** Everything the passes need, gathered once. */
struct View
{
    const Graph& g;
    /** Graph membership and index of each op, keyed by Context*. */
    std::unordered_map<const dam::Context*, size_t> opIndex;
    /** Declared producer/consumer view per channel (first declaration
     *  wins; duplicates surface as endpoint mismatches). */
    std::unordered_map<const dam::Channel*, const PortDecl*> prodDecl;
    std::unordered_map<const dam::Channel*, const PortDecl*> consDecl;
    std::unordered_map<const dam::Channel*, const OpBase*> prodOp;
    std::unordered_map<const dam::Channel*, const OpBase*> consOp;

    explicit View(const Graph& graph) : g(graph)
    {
        const auto& ops = g.ops();
        for (size_t i = 0; i < ops.size(); ++i) {
            opIndex.emplace(ops[i], i);
            for (const PortDecl& p : ops[i]->ports()) {
                if (p.ch == nullptr)
                    continue;
                if (p.isInput) {
                    consDecl.emplace(p.ch, &p);
                    consOp.emplace(p.ch, ops[i]);
                } else {
                    prodDecl.emplace(p.ch, &p);
                    prodOp.emplace(p.ch, ops[i]);
                }
            }
        }
    }
};

void
structuralPass(const View& v, std::vector<Finding>& out)
{
    const auto& ops = v.g.ops();
    for (size_t i = 0; i < ops.size(); ++i) {
        for (const PortDecl& p : ops[i]->ports()) {
            if (p.ch == nullptr) {
                out.push_back(
                    {Severity::Error, "structural.null-port",
                     ops[i]->name(), "",
                     std::string(p.isInput ? "input" : "output") +
                         " port declared with a null channel",
                     "bind the port to a channel created by "
                     "Graph::makeChannel"});
                continue;
            }
            const dam::Context* endpoint =
                p.isInput ? p.ch->consumer() : p.ch->producer();
            if (endpoint != static_cast<const dam::Context*>(ops[i]))
                out.push_back(
                    {Severity::Error, "structural.endpoint-mismatch",
                     ops[i]->name(), p.ch->name(),
                     "op declares itself " +
                         std::string(p.isInput ? "consumer" : "producer") +
                         " but the channel's " +
                         (p.isInput ? "consumer" : "producer") + " is '" +
                         (endpoint ? endpoint->name() : "<none>") + "'",
                     "channels are single-producer single-consumer; a "
                     "later op's binding overwrote this one (use "
                     "BroadcastOp for fan-out)"});
        }
    }
    for (const dam::Channel* ch : v.g.channels()) {
        if (ch->producer() == nullptr)
            out.push_back({Severity::Error, "structural.no-producer", "",
                           ch->name(), "channel has no producer endpoint",
                           "every channel needs exactly one producer op; "
                           "drop the channel or attach a Source/Relay"});
        else if (v.opIndex.find(ch->producer()) == v.opIndex.end())
            out.push_back({Severity::Error, "structural.foreign-endpoint",
                           ch->producer()->name(), ch->name(),
                           "producer is not an operator of this graph",
                           "the endpoint belongs to another graph build; "
                           "re-wire after recycle()"});
        if (ch->consumer() == nullptr)
            out.push_back({Severity::Error, "structural.no-consumer", "",
                           ch->name(), "channel has no consumer endpoint",
                           "every channel needs exactly one consumer op; "
                           "drop the channel or attach a Sink"});
        else if (v.opIndex.find(ch->consumer()) == v.opIndex.end())
            out.push_back({Severity::Error, "structural.foreign-endpoint",
                           ch->consumer()->name(), ch->name(),
                           "consumer is not an operator of this graph",
                           "the endpoint belongs to another graph build; "
                           "re-wire after recycle()"});
        if (ch->capacity() == 0)
            out.push_back(
                {Severity::Error, "structural.zero-capacity", "",
                 ch->name(), "channel capacity is 0 (no credits ever)",
                 "any write blocks forever; set SimConfig::"
                 "channelCapacity or the makeChannel override > 0"});
    }
}

void
shapeFlowPass(const View& v, std::vector<Finding>& out)
{
    for (const dam::Channel* ch : v.g.channels()) {
        auto p = v.prodDecl.find(ch);
        auto c = v.consDecl.find(ch);
        if (p == v.prodDecl.end() || c == v.consDecl.end())
            continue; // dangling endpoints are structural findings
        const PortDecl& prod = *p->second;
        const PortDecl& cons = *c->second;
        const std::string prodName = v.prodOp.at(ch)->name();
        const std::string consName = v.consOp.at(ch)->name();
        if (!prod.shape().compatibleWith(cons.shape()))
            out.push_back(
                {Severity::Error, "shape.mismatch", consName, ch->name(),
                 "producer '" + prodName + "' emits " +
                     prod.shape().toString() + " but consumer '" +
                     consName + "' expects " + cons.shape().toString(),
                 "shapes must agree in rank and every static extent; "
                 "insert a shape operator or fix the port declaration"});
        if (prod.dtype().toString() != cons.dtype().toString())
            out.push_back(
                {Severity::Error, "shape.dtype-mismatch", consName,
                 ch->name(),
                 "producer '" + prodName + "' emits " +
                     prod.dtype().toString() + " but consumer '" +
                     consName + "' expects " + cons.dtype().toString(),
                 "element types must match exactly across a channel"});
    }
}

/**
 * Iterative Tarjan SCC over the op-level dependency graph (one edge per
 * channel, producer -> consumer). Recursion-free so pathological graphs
 * cannot overflow the stack.
 */
struct Sccs
{
    std::vector<int> comp;  ///< op index -> SCC id
    size_t count = 0;
};

Sccs
tarjan(size_t n, const std::vector<std::vector<size_t>>& adj)
{
    Sccs r;
    r.comp.assign(n, -1);
    std::vector<int> low(n, -1), idx(n, -1);
    std::vector<size_t> stack;
    std::vector<char> onStack(n, 0);
    int next = 0;
    struct Frame
    {
        size_t v;
        size_t edge;
    };
    std::vector<Frame> frames;
    for (size_t root = 0; root < n; ++root) {
        if (idx[root] != -1)
            continue;
        frames.push_back({root, 0});
        while (!frames.empty()) {
            Frame& f = frames.back();
            size_t u = f.v;
            if (f.edge == 0) {
                idx[u] = low[u] = next++;
                stack.push_back(u);
                onStack[u] = 1;
            }
            bool descended = false;
            while (f.edge < adj[u].size()) {
                size_t w = adj[u][f.edge++];
                if (idx[w] == -1) {
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    low[u] = std::min(low[u], idx[w]);
            }
            if (descended)
                continue;
            if (low[u] == idx[u]) {
                while (true) {
                    size_t w = stack.back();
                    stack.pop_back();
                    onStack[w] = 0;
                    r.comp[w] = static_cast<int>(r.count);
                    if (w == u)
                        break;
                }
                ++r.count;
            }
            frames.pop_back();
            if (!frames.empty()) {
                size_t parent = frames.back().v;
                low[parent] = std::min(low[parent], low[u]);
            }
        }
    }
    return r;
}

void
deadlockPass(const View& v, std::vector<Finding>& out)
{
    const auto& ops = v.g.ops();
    const size_t n = ops.size();
    struct Edge
    {
        size_t from;
        size_t to;
        const dam::Channel* ch;
    };
    std::vector<Edge> edges;
    std::vector<std::vector<size_t>> adj(n);
    for (const dam::Channel* ch : v.g.channels()) {
        auto p = v.opIndex.find(ch->producer());
        auto c = v.opIndex.find(ch->consumer());
        if (p == v.opIndex.end() || c == v.opIndex.end())
            continue;
        adj[p->second].push_back(c->second);
        edges.push_back({p->second, c->second, ch});
    }
    const Sccs sccs = tarjan(n, adj);

    // Per-SCC member count to tell real cycles from singletons.
    std::vector<int> members(sccs.count, 0);
    for (size_t i = 0; i < n; ++i)
        ++members[static_cast<size_t>(sccs.comp[i])];

    std::vector<char> cyclic(sccs.count, 0);
    for (const Edge& e : edges) {
        if (sccs.comp[e.from] != sccs.comp[e.to])
            continue;
        if (members[static_cast<size_t>(sccs.comp[e.from])] > 1 ||
            e.from == e.to)
            cyclic[static_cast<size_t>(sccs.comp[e.from])] = 1;
    }

    for (size_t scc = 0; scc < sccs.count; ++scc) {
        if (!cyclic[scc])
            continue;
        // Internal channels, credits and buffering of this cycle family.
        int64_t priming = 0;
        int64_t capacity = 0;
        const dam::Channel* zeroCap = nullptr;
        std::vector<std::vector<std::pair<size_t, const dam::Channel*>>>
            inAdj(n);
        size_t start = n;
        for (const Edge& e : edges) {
            if (sccs.comp[e.from] != static_cast<int>(scc) ||
                sccs.comp[e.to] != static_cast<int>(scc))
                continue;
            for (const PortDecl& p : ops[e.from]->ports())
                if (!p.isInput && p.ch == e.ch)
                    priming += p.priming;
            capacity += static_cast<int64_t>(e.ch->capacity());
            if (e.ch->capacity() == 0 && !zeroCap)
                zeroCap = e.ch;
            inAdj[e.from].emplace_back(e.to, e.ch);
            start = std::min(start, std::min(e.from, e.to));
        }

        // Minimal cycle witness: shortest internal path start -> start.
        std::string witness;
        const dam::Channel* firstCh = nullptr;
        {
            std::vector<std::pair<size_t, const dam::Channel*>> parent(
                n, {n, nullptr});
            std::deque<size_t> q;
            for (const auto& [to, ch] : inAdj[start])
                if (parent[to].second == nullptr && to != start) {
                    parent[to] = {start, ch};
                    q.push_back(to);
                }
            const dam::Channel* closing = nullptr;
            for (const auto& [to, ch] : inAdj[start])
                if (to == start)
                    closing = ch; // self-loop
            size_t tail = start;
            while (!closing && !q.empty()) {
                size_t u = q.front();
                q.pop_front();
                for (const auto& [to, ch] : inAdj[u]) {
                    if (to == start) {
                        closing = ch;
                        tail = u;
                        break;
                    }
                    if (parent[to].second == nullptr) {
                        parent[to] = {u, ch};
                        q.push_back(to);
                    }
                }
            }
            std::vector<const dam::Channel*> path;
            if (closing) {
                path.push_back(closing);
                for (size_t u = tail; u != start; u = parent[u].first)
                    path.push_back(parent[u].second);
            }
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
                if (!firstCh)
                    firstCh = *it;
                witness += (*it)->name();
                witness += " -> ";
            }
            if (firstCh)
                witness += firstCh->name();
        }
        const std::string opName = ops[start]->name();
        const std::string chName = firstCh ? firstCh->name() : "";

        if (zeroCap) {
            out.push_back(
                {Severity::Error, "deadlock.zero-capacity-cycle", opName,
                 zeroCap->name(),
                 "channel cycle contains a zero-capacity channel: " +
                     witness,
                 "a zero-capacity channel on a cycle can never be "
                 "written; give it buffering"});
        } else if (priming == 0) {
            out.push_back(
                {Severity::Error, "deadlock.cycle-no-credits", opName,
                 chName,
                 "channel cycle carries no initial tokens: " + witness,
                 "every op on the cycle blocks reading its predecessor; "
                 "prime the cycle (bind an output with priming tokens, "
                 "as DispatcherOp does) or break it"});
        } else if (priming > capacity) {
            out.push_back(
                {Severity::Error, "deadlock.cycle-capacity", opName,
                 chName,
                 "cycle primes " + std::to_string(priming) +
                     " token(s) but its channels buffer only " +
                     std::to_string(capacity) + ": " + witness,
                 "the priming writes exhaust the cycle's credits before "
                 "any consumer runs; enlarge the cycle's channel "
                 "capacities"});
        }
    }
}

} // namespace

} // namespace step::verify

namespace step {

verify::VerifyReport
Graph::verify(const verify::VerifyOptions& opts) const
{
    verify::View v(*this);
    verify::VerifyReport r;
    r.opsChecked = ops().size();
    r.channelsChecked = channels().size();
    if (opts.structural)
        verify::structuralPass(v, r.findings);
    if (opts.shapeFlow)
        verify::shapeFlowPass(v, r.findings);
    if (opts.deadlock)
        verify::deadlockPass(v, r.findings);
    return r;
}

} // namespace step
